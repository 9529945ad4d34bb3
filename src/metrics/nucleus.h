// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// (3,4)-nucleus decomposition (Sariyuce et al.), the top rung of the
// paper's dense-subgraph ladder: triangles are the cells, 4-cliques supply
// the support. Peeling mirrors K-Truss one level up, on the same
// level-synchronous peel (common/peel_by_level.h): at each level k, peel
// every triangle whose support has fallen to k and demote the other three
// triangles of every 4-clique it completed, provided that clique is still
// intact. Where K-Truss keeps each vertex's run of edges, the nucleus
// keeps each edge's run of triangles, so support and peel are mark
// passes over runs, with no hashing and no vertex-count limit. The runs
// are sized from K-Truss support (metrics/peel_runs.h), triangles per
// edge, so the triangles are listed once.

#ifndef GRAPHSCAPE_METRICS_NUCLEUS_H_
#define GRAPHSCAPE_METRICS_NUCLEUS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphscape {

struct NucleusDecomposition {
  /// Each triangle as an ascending vertex triple.
  std::vector<std::array<VertexId, 3>> triangles;
  /// nucleus_numbers[t] = the level at which triangle t was peeled: the
  /// largest k such that t is in the largest set of triangles whose
  /// members each lie in at least k 4-cliques made of set members.
  std::vector<uint32_t> nucleus_numbers;
};

/// Triangles are listed in ascending (u, v, w) order, and the numbers
/// follow them. The runs use 32-bit offsets, so the graph may hold at
/// most (2^32 - 1) / 3 triangles.
NucleusDecomposition Nucleus34(const Graph& g);

/// Nucleus values lifted from triangles to edges: for each edge (in
/// EdgeList order), the maximum nucleus number over the triangles that
/// contain it, 0 for triangle-free edges. This is the per-edge scalar
/// field the paper's Fig. 7 dense-subgraph terrains consume.
std::vector<uint32_t> NucleusEdgeNumbers(const Graph& g);

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_NUCLEUS_H_
