// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Algorithm 1 (paper §II-C): the vertex scalar tree.
//
// Every graph vertex is a tree node; Parent(v) is the vertex at which v's
// superlevel-set component G[t] = {x : f(x) >= t} merges into a component
// born higher. Values are non-increasing toward the root: leaves are
// local maxima of the field (the paper's peaks — dense cores under
// K-Core/K-Truss fields), each connected component's root is its minimum.
// Ties are broken by ascending vertex id, giving a total order ("rank")
// and a deterministic tree for duplicate-heavy fields.
//
// Construction is engineered for the memory-bound reality of merge trees
// (cf. TACHYON): ONE sort — vertices by (value desc, id asc) — then a
// union-find sweep over edges in nondecreasing activation order. An edge
// {u, v} activates when the later of its two endpoints is swept; walking
// vertices in sweep order and scanning each one's CSR run for neighbours
// already swept enumerates edges already grouped and sorted by that key,
// so the per-edge counting sort is implicit in the CSR layout and costs
// zero extra passes. "Already swept" is one bit per vertex, not a rank
// array, so the test stays in cache on million-vertex graphs. The sweep
// uses path-halving find with union by size over three pre-sized flat
// uint32 arrays; tree nodes live in the parallel arrays below (a
// struct-of-arrays arena) — no per-node heap allocation anywhere in the
// loop. The sweep order keeps its caller-id ties, but each swept vertex
// reads its run from the graph's degree-order view (Graph::ByDegree), and
// union-find, heads and the swept bits live at view positions: hub
// neighbours, which most entries point at, then share a few cache lines.
// Order, parents and values are in caller ids, byte for byte what a
// caller-id sweep gives.

#ifndef GRAPHSCAPE_SCALAR_SCALAR_TREE_H_
#define GRAPHSCAPE_SCALAR_SCALAR_TREE_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"
#include "scalar/scalar_field.h"

namespace graphscape {

class ScalarTree {
 public:
  ScalarTree() = default;
  ScalarTree(std::vector<VertexId> parents, std::vector<double> values,
             std::vector<VertexId> order, uint32_t num_roots)
      : parents_(std::move(parents)),
        values_(std::move(values)),
        order_(std::move(order)),
        num_roots_(num_roots) {}

  /// One node per field element: graph vertices for Algorithm 1, edge
  /// ids for Algorithm 3 (scalar/edge_scalar_tree.h).
  uint32_t NumNodes() const { return static_cast<uint32_t>(parents_.size()); }

  /// kInvalidVertex for roots.
  VertexId Parent(VertexId v) const { return parents_[v]; }

  double Value(VertexId v) const { return values_[v]; }

  /// Connected components of the graph for vertex trees; edge-bearing
  /// components for edge trees (isolated vertices have no edge node).
  uint32_t NumRoots() const { return num_roots_; }

  const std::vector<VertexId>& Parents() const { return parents_; }
  const std::vector<double>& Values() const { return values_; }

  /// Node ids in (value descending, id ascending) order — the superlevel
  /// sweep order of Algorithms 1/3. Parents always appear AFTER their
  /// children here, which is what lets Algorithm 2 run as a single linear
  /// pass.
  const std::vector<VertexId>& SweepOrder() const { return order_; }

 private:
  std::vector<VertexId> parents_;
  std::vector<double> values_;
  std::vector<VertexId> order_;
  uint32_t num_roots_ = 0;
};

/// Algorithm 1. Requires field.Size() == g.NumVertices().
ScalarTree BuildVertexScalarTree(const Graph& g,
                                 const VertexScalarField& field);

/// Runs BuildVertexScalarTree; kept until graphscape_bench stops calling it.
ScalarTree BuildVertexScalarTreeParallel(const Graph& g,
                                         const VertexScalarField& field,
                                         const ParallelOptions& options = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_SCALAR_TREE_H_
