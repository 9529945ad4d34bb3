// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Mutable edge accumulator that packs into an immutable CSR Graph.
//
// Build() is a two-pass counting sort over the accumulated edge list:
// degrees → prefix offsets → scatter, then per-vertex sort + dedup in place.
// Self-loops and duplicate edges are dropped, so algorithms downstream can
// assume a simple graph.

#ifndef GRAPHSCAPE_GRAPH_GRAPH_BUILDER_H_
#define GRAPHSCAPE_GRAPH_GRAPH_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace graphscape {

class GraphBuilder {
 public:
  /// `num_vertices` is a floor; AddEdge with a larger endpoint grows it.
  explicit GraphBuilder(uint32_t num_vertices = 0)
      : num_vertices_(num_vertices) {}

  void Reserve(size_t num_edges) { edges_.reserve(num_edges); }

  /// Records undirected edge {u, v}. Self-loops are ignored.
  void AddEdge(VertexId u, VertexId v) {
    if (u == v) return;
    const VertexId hi = std::max(u, v);
    if (hi >= num_vertices_) num_vertices_ = hi + 1;
    edges_.emplace_back(u, v);
  }

  uint32_t NumVertices() const { return num_vertices_; }

  /// Packs into CSR. The builder may be reused afterwards (edges kept).
  Graph Build() const {
    const uint32_t n = num_vertices_;
    std::vector<uint32_t> offsets(n + 1, 0);
    for (const auto& [u, v] : edges_) {
      ++offsets[u + 1];
      ++offsets[v + 1];
    }
    for (uint32_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

    std::vector<VertexId> neighbors(edges_.size() * 2);
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : edges_) {
      neighbors[cursor[u]++] = v;
      neighbors[cursor[v]++] = u;
    }

    // Sort each run and squeeze out duplicate edges in one compaction pass.
    uint32_t write = 0;
    uint32_t run_begin = 0;
    for (uint32_t v = 0; v < n; ++v) {
      const uint32_t run_end = offsets[v + 1];
      std::sort(neighbors.begin() + run_begin, neighbors.begin() + run_end);
      const uint32_t new_begin = write;
      for (uint32_t i = run_begin; i < run_end; ++i) {
        if (write == new_begin || neighbors[write - 1] != neighbors[i]) {
          neighbors[write++] = neighbors[i];
        }
      }
      run_begin = run_end;
      offsets[v + 1] = write;
    }
    neighbors.resize(write);
    neighbors.shrink_to_fit();
    return Graph(std::move(offsets), std::move(neighbors));
  }

 private:
  uint32_t num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_GRAPH_BUILDER_H_
