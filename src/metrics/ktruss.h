// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// K-Truss decomposition — the paper's edge scalar field for dense-subgraph
// terrains (§III, Fig. 7).
//
// Both halves walk per-vertex runs of {w, e} pairs (neighbour, id of
// the edge to it) with a mark array, not sorted-run intersection, on
// one lane. Support counting (metrics/peel_runs.h, shared with the
// nucleus): each edge is owned by its endpoint ranked higher by
// (degree, id); a vertex marks its neighbours once, and each owned edge
// sums the marks over the other end's (shorter) run. The peel is the
// same level-synchronous scheme as kcore.h applied to edges: at each
// level k, peel every edge whose support has fallen to k, and demote the
// two surviving edges of each of its triangles. Peeling {u, v} marks the
// shorter live run with the edge to each neighbour and walks the other,
// and a marked w names both side edges with no search. Each walk drops
// the peeled edge and earlier tombstones from its run, so later walks
// pass only live edges. A hub's run is binary-searched rather than
// walked from a leaf's side, and the peeled edge left in it as a
// tombstone, so a star costs O(m log m), not O(m^2). truss[e] = (support
// when peeled) + 2, so an edge in a k-truss but no (k+1)-truss reports
// k.

#ifndef GRAPHSCAPE_METRICS_KTRUSS_H_
#define GRAPHSCAPE_METRICS_KTRUSS_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

/// truss[e] for every edge in EdgeList order (Graph::EdgeEndpoints);
/// values are >= 2.
std::vector<uint32_t> TrussNumbers(const Graph& g);

/// Runs TrussNumbers; kept until graphscape_bench stops calling it.
std::vector<uint32_t> TrussNumbersParallel(const Graph& g,
                                           const ParallelOptions& options = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_KTRUSS_H_
