// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/graph.h"

#include <mutex>

namespace graphscape {

struct Graph::Derived {
  std::once_flag by_degree_once;
  DegreeOrder by_degree;
  std::once_flag edges_once;
  std::vector<VertexId> edge_u, edge_v;  // m: EdgeList-order endpoints
};

namespace {

// A counting sort by descending degree; ranking vertices in ascending id
// order keeps ties in id order. Each run is copied in its caller-id order
// with every neighbour mapped to its position.
void BuildDegreeOrder(const Graph& g, Graph::DegreeOrder* out) {
  const uint32_t n = g.NumVertices();
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, g.Degree(v));
  }
  // first[max_degree - d]: the next free position of degree d.
  std::vector<uint32_t> first(static_cast<size_t>(max_degree) + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++first[max_degree - g.Degree(v) + 1];
  for (uint32_t b = 0; b <= max_degree; ++b) first[b + 1] += first[b];
  std::vector<uint32_t>& rank = out->rank;
  std::vector<uint32_t>& offsets = out->offsets;
  rank.resize(n);
  offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    rank[v] = first[max_degree - g.Degree(v)]++;
    offsets[rank[v] + 1] = g.Degree(v);
  }
  for (uint32_t p = 0; p < n; ++p) offsets[p + 1] += offsets[p];
  out->adjacency.resize(g.Adjacency().size());
  for (VertexId v = 0; v < n; ++v) {
    uint32_t i = offsets[rank[v]];
    for (const VertexId u : g.Neighbors(v)) out->adjacency[i++] = rank[u];
  }
}

}  // namespace

Graph::Graph(std::vector<uint32_t> offsets, std::vector<VertexId> neighbors)
    : offsets_(std::move(offsets)),
      neighbors_(std::move(neighbors)),
      derived_(std::make_shared<Derived>()) {}

const Graph::DegreeOrder& Graph::ByDegree() const {
  static const DegreeOrder kEmpty{{}, {0}, {}};
  if (!derived_) return kEmpty;
  std::call_once(derived_->by_degree_once,
                 [this] { BuildDegreeOrder(*this, &derived_->by_degree); });
  return derived_->by_degree;
}

const std::vector<VertexId>& Graph::EdgeSources() const {
  static const std::vector<VertexId> kEmpty;
  if (!derived_) return kEmpty;
  std::call_once(derived_->edges_once, [this] {
    std::vector<VertexId>& edge_u = derived_->edge_u;
    std::vector<VertexId>& edge_v = derived_->edge_v;
    edge_u.resize(neighbors_.size() / 2);
    edge_v.resize(neighbors_.size() / 2);
    EdgeId next = 0;
    for (VertexId u = 0; u < NumVertices(); ++u) {
      for (const VertexId v : Neighbors(u)) {
        if (u < v) {
          edge_u[next] = u;
          edge_v[next] = v;
          ++next;
        }
      }
    }
  });
  return derived_->edge_u;
}

const std::vector<VertexId>& Graph::EdgeTargets() const {
  static const std::vector<VertexId> kEmpty;
  if (!derived_) return kEmpty;
  EdgeSources();  // builds both arrays
  return derived_->edge_v;
}

std::pair<VertexId, VertexId> Graph::EdgeEndpoints(EdgeId e) const {
  const VertexId u = EdgeSources()[e];  // builds both arrays
  return {u, derived_->edge_v[e]};
}

}  // namespace graphscape
