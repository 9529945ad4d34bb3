// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The live runs of the K-Truss and (3,4)-nucleus peels: each vertex's
// {neighbour, edge id} pairs, or each edge's {third vertex, triangle id}
// pairs, sorted by vertex and holding only items not yet peeled, plus
// tombstones in runs that are searched rather than walked. Both peels
// start from K-Truss support, triangles per edge: the truss peels it,
// and the nucleus sizes its edges' triangle runs from it.

#ifndef GRAPHSCAPE_METRICS_PEEL_RUNS_H_
#define GRAPHSCAPE_METRICS_PEEL_RUNS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphscape {
namespace internal {

// Item `id` joins vertex w to the run's owner (a vertex or an edge).
struct Pair {
  VertexId w;
  uint32_t id;
};

// Every vertex's run of {neighbour, edge id} pairs, in CSR slot order.
std::vector<Pair> BuildRuns(const Graph& g);

// support[e] = the number of triangles on edge e, in EdgeList order.
// `runs` is BuildRuns(g); `mark` holds n zeros on entry and on return.
// Vertex u owns the edges to neighbours ranked below it by (degree, id),
// so each edge is counted once, from its higher-ranked end, by scanning
// the lower-ranked end's run: the shorter one. u marks N(u) once, then
// every owned edge {u, v} sums the marks over N(v). K-Truss marks with
// bytes (uint32 marks read 8-20% slower on a 944k-vertex graph); the
// nucleus passes the uint32 marks its triangle listing needs, so it
// allocates no second mark array.
template <typename Mark>
std::vector<uint32_t> CountSupport(const Graph& g,
                                   const std::vector<Pair>& runs,
                                   std::vector<Mark>& mark) {
  const std::vector<uint32_t>& offsets = g.Offsets();
  std::vector<uint32_t> support(g.NumEdges(), 0);
  const auto ranks_below = [&g](VertexId a, VertexId b) {
    const uint32_t da = g.Degree(a), db = g.Degree(b);
    return da < db || (da == db && a < b);
  };
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const Pair* begin = runs.data() + offsets[u];
    const Pair* end = runs.data() + offsets[u + 1];
    for (const Pair* p = begin; p != end; ++p) mark[p->w] = 1;
    for (const Pair* p = begin; p != end; ++p) {
      if (!ranks_below(p->w, u)) continue;
      uint32_t triangles = 0;
      const Pair* q_end = runs.data() + offsets[p->w + 1];
      for (const Pair* q = runs.data() + offsets[p->w]; q != q_end; ++q) {
        triangles += mark[q->w];
      }
      support[p->id] = triangles;
    }
    for (const Pair* p = begin; p != end; ++p) mark[p->w] = 0;
  }
  return support;
}

// The id a peeled item's tombstone carries in a searched run.
inline constexpr uint32_t kPeeled = ~0u;

// Compacts the run [lo, hi) in place to its live pairs other than item
// id's, in order, and returns the new end. visit(pair, live) sees every
// pair. The loop does not branch on liveness: a walk meets items peeled
// since its run was last compacted in no predictable order.
template <typename Visit>
Pair* KeepLive(Pair* lo, Pair* hi, uint32_t id, Visit&& visit) {
  Pair* out = lo;
  for (const Pair* p = lo; p != hi; ++p) {
    const Pair pair = *p;
    const bool live = pair.id != id && pair.id != kPeeled;
    *out = pair;
    out += live;
    visit(pair, live);
  }
  return out;
}

}  // namespace internal
}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_PEEL_RUNS_H_
