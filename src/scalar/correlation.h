// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Field-vs-field comparison (paper §III-C): how similarly do two scalar
// fields rank the same graph? Three complementary lenses:
//
//  * Global, value-space: Pearson / Spearman over the shared element
//    support (every vertex, or every edge).
//  * Local, neighborhood-space: the Local Correlation Index LCI(v) —
//    Pearson over the closed neighborhood {v} ∪ N(v) — and its mean, the
//    Graph Correlation Index GCI (the paper's 0.89 for degree vs
//    betweenness on Astro). Vertices whose neighborhoods ANTI-correlate
//    while the GCI is strongly positive are the interesting ones — the
//    paper's bridge vertices — so OutlierScoreField turns -LCI into a
//    field whose terrain peaks are exactly those outliers.
//  * Structural, tree-space: Jaccard overlap of the top-k peak member
//    sets of two super trees — do the fields crown the same dense
//    structures?
//
// Conventions: a correlation over fewer than three points, or over a
// window where either field is constant, is defined as 0 (neutral) —
// degenerate neighborhoods carry no evidence either way.

#ifndef GRAPHSCAPE_SCALAR_CORRELATION_H_
#define GRAPHSCAPE_SCALAR_CORRELATION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "scalar/scalar_field.h"
#include "scalar/super_tree.h"

namespace graphscape {

/// Pearson correlation of two equal-length samples; 0 if fewer than 3
/// points or either sample is constant.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Average-rank transform: ranks[i] is the 0-based rank of values[i] in
/// ascending order, ties sharing the mean rank of their run (so -0.0 and
/// +0.0 tie). Linear time (the scalar trees' radix sort); values must be
/// finite. The query service computes it once per loaded field.
std::vector<double> AverageRanks(const std::vector<double>& values);

/// Spearman rank correlation (average ranks on ties), same conventions:
/// PearsonCorrelation(AverageRanks(a), AverageRanks(b)).
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

/// LCI(v): Pearson over the closed neighborhood {v} ∪ N(v). One O(deg)
/// scan per vertex, no allocation in the loop.
std::vector<double> LocalCorrelationIndices(const Graph& g,
                                            const VertexScalarField& a,
                                            const VertexScalarField& b);

/// GCI: the mean LCI over all vertices (paper §III-C).
double Gci(const Graph& g, const VertexScalarField& a,
           const VertexScalarField& b);

/// -LCI as a field: peaks of its terrain are the vertices whose
/// neighborhoods disagree hardest with the global trend.
VertexScalarField OutlierScoreField(const Graph& g,
                                    const VertexScalarField& a,
                                    const VertexScalarField& b);

/// The element ids claimed by the super nodes of `tree`'s TopPeaks(k)
/// (scalar/tree_queries.h), ascending and duplicate-free.
std::vector<uint32_t> TopPeakMembers(const SuperTree& tree, uint32_t k);

/// Jaccard overlap |A ∩ B| / |A ∪ B| of two ascending, duplicate-free id
/// lists (TopPeakMembers' output); 1.0 when both are empty.
double SortedJaccard(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b);

/// SortedJaccard of the two trees' TopPeakMembers(k). Both trees must
/// contract the same element space (same NumElements()): a vertex tree
/// compares only with a vertex tree of the same graph, an edge tree only
/// with an edge tree. A mismatch throws std::invalid_argument in every
/// build type (the ids would name elements of different spaces).
double TopPeakJaccard(const SuperTree& a, const SuperTree& b, uint32_t k);

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_CORRELATION_H_
