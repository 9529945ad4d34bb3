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
// Two structures are derived from the CSR arrays on first use, each
// built once per graph under std::call_once and shared by every copy of
// the graph (a copy shares them with its source; a default-constructed
// or moved-from graph answers with empty ones):
//
//  * The degree-order view (ByDegree): the vertices relabelled by
//    descending degree, ties by ascending id, with a CSR over those
//    positions. On a power-law graph most adjacency entries point at a
//    few hubs, which this order packs into a few cache lines, so a peel
//    or sweep that touches one random slot per entry (CoreNumbers,
//    BuildVertexScalarTree) keeps its per-vertex state at view positions
//    and misses far less. Results stay in caller ids.
//  * The edge-endpoint arrays (EdgeSources/EdgeTargets): edges carry
//    dense ids in EdgeList order (ascending smaller endpoint, then
//    larger) — the id space every edge-indexed consumer shares
//    (TrussNumbers, EdgeScalarField, graph/edge_index.h). Only edge-id
//    consumers (K-Truss, the edge tree, correlation's lift, OpenOrd and
//    SVG) read them, so vertex-field jobs never pay their 2m ids.
//
// Both builds read only the immutable CSR arrays, so their output does
// not depend on which thread builds them.

#ifndef GRAPHSCAPE_GRAPH_GRAPH_H_
#define GRAPHSCAPE_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
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

  /// The degree-order view: rank[v] is vertex v's position, by
  /// descending degree, ties by ascending id. offsets/adjacency are a CSR
  /// over positions whose runs list each vertex's neighbours as
  /// positions, in the order of its caller-id run (so a run is not
  /// sorted). Built on first use.
  struct DegreeOrder {
    std::vector<uint32_t> rank;       // n: vertex id -> position
    std::vector<uint32_t> offsets;    // n + 1, over positions
    std::vector<uint32_t> adjacency;  // 2m neighbour positions
  };
  const DegreeOrder& ByDegree() const;

  /// Endpoints of edge `e` in EdgeList order, smaller endpoint first.
  /// Each call passes the first-use gate; a loop over edges should read
  /// EdgeSources()/EdgeTargets() once instead.
  std::pair<VertexId, VertexId> EdgeEndpoints(EdgeId e) const;

  /// Raw endpoint arrays (m each, sources[e] < targets[e]), built on
  /// first use.
  const std::vector<VertexId>& EdgeSources() const;
  const std::vector<VertexId>& EdgeTargets() const;

  /// Raw CSR arrays, for kernels that index the structure directly.
  const std::vector<uint32_t>& Offsets() const { return offsets_; }
  const std::vector<VertexId>& Adjacency() const { return neighbors_; }

 private:
  friend class GraphBuilder;
  Graph(std::vector<uint32_t> offsets, std::vector<VertexId> neighbors);

  // The first-use structures and their once flags; null on a
  // default-constructed or moved-from graph.
  struct Derived;

  std::vector<uint32_t> offsets_;   // n + 1; offsets_[n] == neighbors_.size()
  std::vector<VertexId> neighbors_;  // 2m, each per-vertex run sorted
  std::shared_ptr<Derived> derived_;
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_GRAPH_H_
