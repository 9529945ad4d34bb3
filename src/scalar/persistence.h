// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Topological persistence over scalar trees (paper §II-E's principled
// sibling; cf. Yan et al., "Scalar Field Comparison with Topological
// Descriptors"). A superlevel-set component is BORN at a leaf of the
// scalar tree (a local maximum) and DIES where the sweep merges it into
// a component with an older (higher) birth — the elder rule. The pair
// (birth, death) measures the feature's prominence: birth - death.
//
// Extraction is one linear pass over the sweep order (which lists every
// child before its parent — the tree_core invariant both Algorithms 1
// and 3 guarantee), pushing each subtree's eldest birth up to its
// parent; the younger branch at every junction emits a pair. Works for
// vertex trees and edge trees alike since both are plain ScalarTrees.
// One pair per leaf; each tree root carries one ESSENTIAL pair (the
// component's global maximum, dying only at the component minimum).
//
// SimplifyByPersistence is the persistence-ranked alternative to §II-E's
// uniform level quantization (scalar/simplify.h): instead of snapping
// values to a grid — which kills small features and tall-but-thin ones
// alike — it cancels exactly the peaks whose persistence is below the
// threshold, clamping the dying branch down to its death value so the
// rebuilt tree merges it into the surviving neighbor. Quantizing to L
// levels kills every feature with persistence < range/L; persistence
// simplification with that threshold keeps the features a uniform grid
// would smear.

#ifndef GRAPHSCAPE_SCALAR_PERSISTENCE_H_
#define GRAPHSCAPE_SCALAR_PERSISTENCE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_field.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"

namespace graphscape {

/// One birth/death feature of the superlevel filtration.
struct PersistencePair {
  uint32_t birth_element;  ///< the local maximum that born the component
  uint32_t death_element;  ///< merge element; kInvalidVertex if essential
  double birth;            ///< field value at birth_element
  double death;            ///< value at death; the component minimum if
                           ///< essential
  bool essential;          ///< never merged: one per tree root

  double Persistence() const { return birth - death; }
};

/// All pairs of the tree's filtration, essential pairs first, then by
/// persistence descending (ties: birth_element ascending). Exactly one
/// pair per leaf; NumRoots() of them are essential. O(n) after the
/// near-linear tree build.
std::vector<PersistencePair> PersistencePairs(const ScalarTree& tree);

/// The tree's values with every non-essential feature of persistence
/// < min_persistence cancelled: each dying branch is clamped down to its
/// death value (cascading through nested cancellations), so rebuilding
/// the tree on the returned values merges cancelled peaks into their
/// surviving neighbors. min_persistence <= 0 returns the values
/// unchanged; essential peaks always survive.
std::vector<double> PersistenceSimplifiedValues(const ScalarTree& tree,
                                                double min_persistence);

/// Algorithm 1 + cancellation + Algorithm 2: the persistence-ranked
/// counterpart of SimplifiedVertexSuperTree (scalar/simplify.h).
SuperTree SimplifyByPersistence(const Graph& g,
                                const VertexScalarField& field,
                                double min_persistence);

/// Algorithm 3 + cancellation + Algorithm 2, for edge fields.
SuperTree SimplifyEdgeByPersistence(const Graph& g,
                                    const EdgeScalarField& field,
                                    double min_persistence);

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_PERSISTENCE_H_
