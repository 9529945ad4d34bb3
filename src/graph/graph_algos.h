// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Traversal primitives over the CSR graph: connected components, k-hop
// neighborhoods, and induced subgraph extraction. These back the figure
// benches (component counts in fig11, the outlier drill-downs in fig10,
// the per-community subgraphs ClassifyRoles reads) and serve as oracles
// for the scalar-tree property tests — a scalar tree has exactly one root
// per connected component.

#ifndef GRAPHSCAPE_GRAPH_GRAPH_ALGOS_H_
#define GRAPHSCAPE_GRAPH_GRAPH_ALGOS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphscape {

struct ComponentLabeling {
  /// component[v] in [0, num_components); ids are dense, assigned in
  /// order of each component's smallest vertex.
  std::vector<uint32_t> component;
  uint32_t num_components = 0;

  uint32_t ComponentOf(VertexId v) const { return component[v]; }
};

/// Single BFS pass over all vertices; O(n + m).
ComponentLabeling ConnectedComponents(const Graph& g);

/// Vertices within `hops` of `center` in BFS discovery order, `center`
/// first — callers that highlight the center rely on it being index 0.
std::vector<VertexId> KHopNeighborhood(const Graph& g, VertexId center,
                                       uint32_t hops);

struct Subgraph {
  Graph graph;
  /// Local vertex id -> vertex id in the parent graph.
  std::vector<VertexId> to_parent_vertex;
};

/// Subgraph induced by `vertices`, preserving their order as local ids
/// (duplicates after the first occurrence are ignored).
Subgraph InducedSubgraph(const Graph& g,
                         const std::vector<VertexId>& vertices);

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_GRAPH_ALGOS_H_
