// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// K-Truss decomposition — the paper's edge scalar field for dense-subgraph
// terrains (§III, Fig. 7).
//
// Support counting via count-only sorted-run intersection, then the same
// level-synchronous peel as kcore.h applied to edges: at each level k,
// peel every edge whose support has fallen to k, and demote the two
// surviving edges of each of its triangles. The peel walks N(u) ∩ N(v)
// with ForEachCommonSlot, and the two CSR slots of each common neighbor
// w are the edges {u, w} and {v, w}, so EdgeIndex::EdgeAtSlot names them
// with no search. truss[e] = (support when peeled) + 2, so an edge in a
// k-truss but no (k+1)-truss reports k.

#ifndef GRAPHSCAPE_METRICS_KTRUSS_H_
#define GRAPHSCAPE_METRICS_KTRUSS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

/// Unique undirected edges {u < v} in CSR order (ascending u, then v).
/// Defines the edge indexing shared by TrussNumbers and EdgeScalarField.
std::vector<std::pair<VertexId, VertexId>> EdgeList(const Graph& g);

/// truss[e] for every edge in EdgeList order; values are >= 2.
std::vector<uint32_t> TrussNumbers(const Graph& g);

/// TrussNumbers with the support-counting pass (one sorted-run
/// intersection per edge, disjoint writes) on the pool; the peel itself
/// is order-serial and runs on the calling thread.
/// EQUAL output to TrussNumbers for every thread count.
std::vector<uint32_t> TrussNumbersParallel(const Graph& g,
                                           const ParallelOptions& options = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_KTRUSS_H_
