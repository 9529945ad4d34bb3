// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Common-neighbor intersection over CSR adjacency runs — the one inner
// loop all triangle-adjacent kernels share. The heavy lifting lives in
// graph/intersect_simd.h (one scalar merge/gallop walk, one runtime-
// dispatched AVX2 block kernel, count-only variants); this header keeps
// the graph-level API every metric calls.
//
// Preconditions (inherited by every path, vector or scalar): per-vertex
// adjacency runs are sorted ascending and duplicate-free — exactly what
// `Graph`'s CSR constructor guarantees. Determinism: every entry point
// produces identical counts and fires callbacks on identical ascending
// element sequences for any dispatch choice (docs/SIMD.md).
//
// Who calls what (keep this current when rewiring a metric):
//
//   count-only (never pays a callback; the AVX2 kernel on balanced runs,
//   else intersect::detail::ForEachMatch):
//     * metrics/triangles.cc  — CountTriangles* via intersect::Count over
//       forward (degree-oriented) runs; per-vertex tallies via
//       intersect::Into into a reused scratch run;
//     * metrics/clustering.cc — TrianglesThrough (sampled cc):
//       CountCommonNeighbors(v, u);
//     * metrics/nucleus.cc    — per-triangle 4-clique support:
//       CountCommonNeighbors(a, b, c).
//
//   element callback (needs the elements, not just the tally):
//     * metrics/nucleus.cc — triangle enumeration (w > v filter) and the
//       3-way peel: ForEachCommonNeighbor(u, v, ...) (a wrapper over
//       ForEachCommonSlot, which has no other caller in src/) and
//       ForEachCommonNeighbor(a, b, c, ...).
//
//   not here: metrics/ktruss.cc counts support and peels with mark
//   arrays over its own runs of {neighbour, edge id} pairs, and reuses
//   only detail::Skewed to decide when a hub's run is searched rather
//   than walked.

#ifndef GRAPHSCAPE_GRAPH_INTERSECT_H_
#define GRAPHSCAPE_GRAPH_INTERSECT_H_

#include <algorithm>

#include "graph/graph.h"
#include "graph/intersect_simd.h"

namespace graphscape {

/// Calls on_slots(su, sv) for every w adjacent to both u and v, ascending
/// in w, where su and sv are w's CSR slots (indices into
/// Graph::Adjacency()) in u's and v's runs. Those slots ARE the edges
/// {u, w} and {v, w}, so EdgeIndex::EdgeAtSlot names both without a
/// search. Callers that only count should use CountCommonNeighbors
/// instead; it reaches the vectorized count kernel.
template <typename OnSlots>
inline void ForEachCommonSlot(const Graph& g, VertexId u, VertexId v,
                              OnSlots&& on_slots) {
  const VertexId* base = g.Adjacency().data();
  const Graph::NeighborRange ru = g.Neighbors(u);
  const Graph::NeighborRange rv = g.Neighbors(v);
  const auto slot = [base](const VertexId* p) {
    return static_cast<uint32_t>(p - base);
  };
  if (ru.size() <= rv.size()) {
    intersect::detail::ForEachMatch(
        ru.begin(), ru.end(), rv.begin(), rv.end(),
        intersect::detail::Skewed(ru.size(), rv.size()),
        [&](const VertexId* pu, const VertexId* pv) {
          on_slots(slot(pu), slot(pv));
        });
  } else {
    intersect::detail::ForEachMatch(
        rv.begin(), rv.end(), ru.begin(), ru.end(),
        intersect::detail::Skewed(rv.size(), ru.size()),
        [&](const VertexId* pv, const VertexId* pu) {
          on_slots(slot(pu), slot(pv));
        });
  }
}

/// Calls on_vertex(w) for every w adjacent to both u and v, ascending.
template <typename OnVertex>
inline void ForEachCommonNeighbor(const Graph& g, VertexId u, VertexId v,
                                  OnVertex&& on_vertex) {
  const VertexId* adj = g.Adjacency().data();
  ForEachCommonSlot(g, u, v,
                    [&](uint32_t su, uint32_t) { on_vertex(adj[su]); });
}

/// Calls on_vertex(d) for every d adjacent to all of a, b, and c,
/// ascending. Each round advances ONLY the pointers lagging behind the
/// current maximum (galloping through large gaps), so two runs already
/// sitting at the frontier are never rescanned — the shape the skewed
/// nucleus adjacencies need. Count-only callers should use the 3-way
/// CountCommonNeighbors below.
template <typename OnVertex>
inline void ForEachCommonNeighbor(const Graph& g, VertexId a, VertexId b,
                                  VertexId c, OnVertex&& on_vertex) {
  const Graph::NeighborRange ra = g.Neighbors(a);
  const Graph::NeighborRange rb = g.Neighbors(b);
  const Graph::NeighborRange rc = g.Neighbors(c);
  const VertexId* pa = ra.begin();
  const VertexId* pb = rb.begin();
  const VertexId* pc = rc.begin();
  while (pa != ra.end() && pb != rb.end() && pc != rc.end()) {
    if (*pa == *pb && *pb == *pc) {
      on_vertex(*pa);
      ++pa;
      ++pb;
      ++pc;
      continue;
    }
    const VertexId hi = std::max({*pa, *pb, *pc});
    if (*pa < hi) pa = intersect::detail::GallopSeek(pa, ra.end(), hi);
    if (*pb < hi) pb = intersect::detail::GallopSeek(pb, rb.end(), hi);
    if (*pc < hi) pc = intersect::detail::GallopSeek(pc, rc.end(), hi);
  }
}

/// |N(u) ∩ N(v)| without a callback: reaches the dispatched SIMD count
/// kernel (or the galloping path on skewed degrees). Allocation-free.
inline uint32_t CountCommonNeighbors(const Graph& g, VertexId u,
                                     VertexId v) {
  const Graph::NeighborRange ru = g.Neighbors(u);
  const Graph::NeighborRange rv = g.Neighbors(v);
  return intersect::Count(ru.begin(), ru.size(), rv.begin(), rv.size());
}

/// |N(a) ∩ N(b) ∩ N(c)| without a callback (nucleus 4-clique support).
/// Allocation-free: fixed stack scratch inside intersect::Count3.
inline uint32_t CountCommonNeighbors(const Graph& g, VertexId a, VertexId b,
                                     VertexId c) {
  const Graph::NeighborRange ra = g.Neighbors(a);
  const Graph::NeighborRange rb = g.Neighbors(b);
  const Graph::NeighborRange rc = g.Neighbors(c);
  return intersect::Count3(ra.begin(), ra.size(), rb.begin(), rb.size(),
                           rc.begin(), rc.size());
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_INTERSECT_H_
