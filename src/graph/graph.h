// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Immutable CSR-packed undirected graph.
//
// The whole adjacency structure is two flat uint32_t arrays: `offsets_`
// (n + 1 entries) and `neighbors_` (2m entries, both directions of every
// edge). Per-vertex adjacency lists are sorted ascending: HasEdge is an
// O(log d) search, and the triangle, truss and nucleus mark passes walk
// each run with perfectly sequential access. There are no per-vertex
// containers anywhere — a neighborhood scan touches exactly one
// contiguous cache-line run.
//
// Edges additionally carry dense ids in EdgeList order (ascending smaller
// endpoint, then larger) with O(1) endpoint lookup — the id space every
// edge-indexed consumer shares (TrussNumbers, EdgeScalarField,
// graph/edge_index.h). The two m-sized endpoint arrays are derived from
// the CSR structure at construction in one pass.

#ifndef GRAPHSCAPE_GRAPH_GRAPH_H_
#define GRAPHSCAPE_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace graphscape {

using VertexId = uint32_t;
using EdgeId = uint32_t;
inline constexpr VertexId kInvalidVertex = 0xffffffffu;

class Graph {
 public:
  /// Contiguous, sorted view of one vertex's neighbors.
  struct NeighborRange {
    const VertexId* first;
    const VertexId* last;
    const VertexId* begin() const { return first; }
    const VertexId* end() const { return last; }
    uint32_t size() const { return static_cast<uint32_t>(last - first); }
    VertexId operator[](uint32_t i) const { return first[i]; }
  };

  Graph() = default;

  uint32_t NumVertices() const {
    return offsets_.empty() ? 0 : static_cast<uint32_t>(offsets_.size() - 1);
  }

  /// Number of undirected edges (each stored once per direction).
  uint64_t NumEdges() const { return neighbors_.size() / 2; }

  uint32_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  NeighborRange Neighbors(VertexId v) const {
    const VertexId* base = neighbors_.data();
    return NeighborRange{base + offsets_[v], base + offsets_[v + 1]};
  }

  /// True iff edge {u, v} exists; O(log deg(u)).
  bool HasEdge(VertexId u, VertexId v) const {
    const NeighborRange r = Neighbors(u);
    return std::binary_search(r.begin(), r.end(), v);
  }

  /// Endpoints of edge `e` in EdgeList order, smaller endpoint first.
  std::pair<VertexId, VertexId> EdgeEndpoints(EdgeId e) const {
    return {edge_u_[e], edge_v_[e]};
  }

  /// Raw endpoint arrays (m each, edge_u_[e] < edge_v_[e]).
  const std::vector<VertexId>& EdgeSources() const { return edge_u_; }
  const std::vector<VertexId>& EdgeTargets() const { return edge_v_; }

  /// Raw CSR arrays, for kernels that index the structure directly.
  const std::vector<uint32_t>& Offsets() const { return offsets_; }
  const std::vector<VertexId>& Adjacency() const { return neighbors_; }

 private:
  friend class GraphBuilder;
  Graph(std::vector<uint32_t> offsets, std::vector<VertexId> neighbors)
      : offsets_(std::move(offsets)), neighbors_(std::move(neighbors)) {
    edge_u_.resize(neighbors_.size() / 2);
    edge_v_.resize(neighbors_.size() / 2);
    EdgeId next = 0;
    for (VertexId u = 0; u < NumVertices(); ++u) {
      for (const VertexId v : Neighbors(u)) {
        if (u < v) {
          edge_u_[next] = u;
          edge_v_[next] = v;
          ++next;
        }
      }
    }
  }

  std::vector<uint32_t> offsets_;   // n + 1; offsets_[n] == neighbors_.size()
  std::vector<VertexId> neighbors_;  // 2m, each per-vertex run sorted
  std::vector<VertexId> edge_u_, edge_v_;  // m: EdgeList-order endpoints
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_GRAPH_H_
