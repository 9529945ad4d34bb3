// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/graph_algos.h"

#include "graph/graph_builder.h"

namespace graphscape {
namespace {

/// Marks a vertex no BFS has reached yet.
constexpr uint32_t kUnreached = 0xffffffffu;

}  // namespace

ComponentLabeling ConnectedComponents(const Graph& g) {
  const uint32_t n = g.NumVertices();
  ComponentLabeling result;
  result.component.assign(n, kUnreached);

  std::vector<VertexId> queue;
  queue.reserve(n);
  for (VertexId start = 0; start < n; ++start) {
    if (result.component[start] != kUnreached) continue;
    const uint32_t label = result.num_components++;
    result.component[start] = label;
    queue.clear();
    queue.push_back(start);
    // The queue never pops; `cursor` walks it in place.
    for (size_t cursor = 0; cursor < queue.size(); ++cursor) {
      for (const VertexId u : g.Neighbors(queue[cursor])) {
        if (result.component[u] != kUnreached) continue;
        result.component[u] = label;
        queue.push_back(u);
      }
    }
  }
  return result;
}

std::vector<VertexId> KHopNeighborhood(const Graph& g, VertexId center,
                                       uint32_t hops) {
  std::vector<uint32_t> distance(g.NumVertices(), kUnreached);
  distance[center] = 0;
  std::vector<VertexId> frontier;
  frontier.push_back(center);
  for (size_t cursor = 0; cursor < frontier.size(); ++cursor) {
    const VertexId v = frontier[cursor];
    if (distance[v] == hops) continue;
    for (const VertexId u : g.Neighbors(v)) {
      if (distance[u] != kUnreached) continue;
      distance[u] = distance[v] + 1;
      frontier.push_back(u);
    }
  }
  return frontier;
}

Subgraph InducedSubgraph(const Graph& g,
                         const std::vector<VertexId>& vertices) {
  Subgraph result;
  // Parent -> local mapping; kInvalidVertex marks "not selected".
  std::vector<VertexId> local_of(g.NumVertices(), kInvalidVertex);
  result.to_parent_vertex.reserve(vertices.size());
  for (const VertexId v : vertices) {
    if (local_of[v] != kInvalidVertex) continue;  // duplicate
    local_of[v] = static_cast<VertexId>(result.to_parent_vertex.size());
    result.to_parent_vertex.push_back(v);
  }

  GraphBuilder builder(
      static_cast<uint32_t>(result.to_parent_vertex.size()));
  for (const VertexId v : result.to_parent_vertex) {
    for (const VertexId u : g.Neighbors(v)) {
      // Each kept edge is seen from both endpoints; add it once.
      if (local_of[u] != kInvalidVertex && v < u) {
        builder.AddEdge(local_of[v], local_of[u]);
      }
    }
  }
  result.graph = builder.Build();
  return result;
}

}  // namespace graphscape
