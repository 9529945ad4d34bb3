// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/triangles.h"

namespace graphscape {
namespace {

// Degree order with id tie-break; orienting edges low -> high makes the
// out-degree of every vertex O(sqrt(m)) on any graph.
inline bool Before(const Graph& g, VertexId a, VertexId b) {
  const uint32_t da = g.Degree(a), db = g.Degree(b);
  return da < db || (da == db && a < b);
}

// The degree-oriented DAG in CSR form: fwd run of u = neighbors v with u
// Before v, ascending by id. Every triangle {u, v, w} has exactly one
// source — its degree-least vertex u — and appears exactly once as w ∈
// fwd(u) ∩ fwd(v) for v ∈ fwd(u).
struct ForwardAdjacency {
  std::vector<uint32_t> offsets;  // n + 1
  std::vector<VertexId> targets;  // m, plus one slot the copy writes past

  const VertexId* Begin(VertexId u) const {
    return targets.data() + offsets[u];
  }
  const VertexId* End(VertexId u) const {
    return targets.data() + offsets[u + 1];
  }
};

// One pass of random degree reads decides every CSR slot's direction into
// a byte per slot; the copy pass then reads the slots in order, without
// a branch.
ForwardAdjacency BuildForward(const Graph& g) {
  const uint32_t n = g.NumVertices();
  const std::vector<VertexId>& adj = g.Adjacency();
  const std::vector<uint32_t>& slots = g.Offsets();
  std::vector<uint8_t> forward(adj.size());
  ForwardAdjacency fwd;
  fwd.offsets.assign(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    uint32_t out = 0;
    for (uint32_t s = slots[u]; s < slots[u + 1]; ++s) {
      forward[s] = Before(g, u, adj[s]);
      out += forward[s];
    }
    fwd.offsets[u + 1] = fwd.offsets[u] + out;
  }
  fwd.targets.resize(fwd.offsets[n] + 1);
  uint32_t next = 0;
  for (size_t s = 0; s < adj.size(); ++s) {
    fwd.targets[next] = adj[s];
    next += forward[s];
  }
  return fwd;
}

// Calls visit(u, mark) for every pivot u with at least two forward
// neighbours, with `mark` set at exactly fwd(u).
template <typename Visit>
void ForEachMarkedPivot(const ForwardAdjacency& fwd, Visit&& visit) {
  const uint32_t n = static_cast<uint32_t>(fwd.offsets.size() - 1);
  std::vector<uint8_t> mark(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    if (fwd.End(u) - fwd.Begin(u) < 2) continue;  // closes no triangle
    for (const VertexId* v = fwd.Begin(u); v != fwd.End(u); ++v) mark[*v] = 1;
    visit(u, mark.data());
    for (const VertexId* v = fwd.Begin(u); v != fwd.End(u); ++v) mark[*v] = 0;
  }
}

}  // namespace

uint64_t CountTriangles(const Graph& g) {
  const ForwardAdjacency fwd = BuildForward(g);
  uint64_t count = 0;
  ForEachMarkedPivot(fwd, [&](VertexId u, const uint8_t* mark) {
    for (const VertexId* v = fwd.Begin(u); v != fwd.End(u); ++v) {
      for (const VertexId* w = fwd.Begin(*v); w != fwd.End(*v); ++w) {
        count += mark[*w];
      }
    }
  });
  return count;
}

std::vector<uint32_t> VertexTriangleCounts(const Graph& g) {
  const ForwardAdjacency fwd = BuildForward(g);
  std::vector<uint32_t> counts(g.NumVertices(), 0);
  ForEachMarkedPivot(fwd, [&](VertexId u, const uint8_t* mark) {
    for (const VertexId* v = fwd.Begin(u); v != fwd.End(u); ++v) {
      uint32_t hits = 0;
      for (const VertexId* w = fwd.Begin(*v); w != fwd.End(*v); ++w) {
        if (mark[*w] != 0) {
          ++counts[*w];
          ++hits;
        }
      }
      counts[*v] += hits;
      counts[u] += hits;
    }
  });
  return counts;
}

}  // namespace graphscape
