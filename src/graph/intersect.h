// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Sorted-run intersection: one scalar walk, detail::ForEachMatch, which is
// the only merge loop and the only gallop (exponential-search) loop in
// src/. The gallop is taken when run lengths are skewed past
// kGallopSkewRatio (detail::Skewed): the hub-vs-leaf adjacency case that
// dominates the BA/CitPatent datasets. Everything else here is a thin
// wrapper over that walk.
//
// Preconditions shared by every entry point: runs are sorted ascending and
// duplicate-free (exactly the CSR adjacency invariant `graph/graph.h`
// guarantees). Violating either silently miscounts. Every entry point is
// allocation-free, const over its inputs and safe to call concurrently.
// The merge and the gallop fire the identical ascending match sequence;
// `tests/intersect_test.cc` pins both against brute-force oracles.
//
// Who calls what (keep this current when rewiring a metric):
//
//   * scalar/correlation.cc — SortedJaccard: intersect::Count over two
//     sorted top-peak member lists;
//   * metrics/nucleus.cc — triangle enumeration (w > v filter):
//     ForEachCommonNeighbor(u, v, ...), a wrapper over ForEachCommonSlot;
//     4-clique support: CountCommonNeighbors(a, b, c), i.e. Count3; the
//     3-way peel: ForEachCommonNeighbor(a, b, c, ...);
//   * metrics/ktruss.cc — only detail::Skewed, to decide when a hub's run
//     is searched rather than walked. K-Truss counts support and peels
//     with mark arrays over its own runs of {neighbour, edge id} pairs.
//
//   Not here: metrics/triangles.cc counts triangles (and so clustering)
//   with mark passes over degree-ordered forward runs, no intersection.

#ifndef GRAPHSCAPE_GRAPH_INTERSECT_H_
#define GRAPHSCAPE_GRAPH_INTERSECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "graph/graph.h"

namespace graphscape {
namespace intersect {

/// Runs whose longer side is at least this multiple of the shorter side
/// take the galloping walk instead of the merge. BM_IntersectSkew
/// (16-element short run) reads the gallop 2-3x faster than the merge walk
/// at ratio 16 and 5-9x at ratio 64.
inline constexpr uint32_t kGallopSkewRatio = 32;

namespace detail {

/// First position in [first, last) with *pos >= target, found by
/// exponential probe + binary search over the final bracket. O(log gap),
/// monotone-pointer friendly.
inline const uint32_t* GallopSeek(const uint32_t* first,
                                  const uint32_t* last, uint32_t target) {
  if (first == last || *first >= target) return first;
  // Invariant: *lo < target.
  const uint32_t* lo = first;
  uint32_t step = 1;
  while (static_cast<size_t>(last - lo) > step && lo[step] < target) {
    lo += step;
    step <<= 1;
  }
  const uint32_t* hi =
      static_cast<size_t>(last - lo) > step ? lo + step + 1 : last;
  return std::lower_bound(lo + 1, hi, target);
}

/// True when the longer run (length nb) is at least kGallopSkewRatio
/// times the shorter one (length na): the pair takes the gallop walk.
inline bool Skewed(size_t na, size_t nb) {
  return nb >= na * kGallopSkewRatio;
}

/// Calls on_match(pa, pb) for every element common to the sorted runs
/// [a, ea) and [b, eb), ascending, with pa and pb pointing at it in each
/// run. `gallop` walks `a` and exponential-searches `b` (pass
/// Skewed(|a|, |b|) with `a` the shorter run); otherwise the runs merge.
/// Both walks fire the identical sequence.
template <typename OnMatch>
inline void ForEachMatch(const uint32_t* a, const uint32_t* ea,
                         const uint32_t* b, const uint32_t* eb, bool gallop,
                         OnMatch&& on_match) {
  if (gallop) {
    for (; a != ea; ++a) {
      b = GallopSeek(b, eb, *a);
      if (b == eb) return;
      if (*b == *a) {
        on_match(a, b);
        ++b;
      }
    }
    return;
  }
  while (a != ea && b != eb) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      on_match(a, b);
      ++a;
      ++b;
    }
  }
}

}  // namespace detail

/// |a ∩ b| for sorted duplicate-free runs: the walk from the shorter run,
/// galloping when Skewed.
inline uint32_t Count(const uint32_t* a, uint32_t na, const uint32_t* b,
                      uint32_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  uint32_t count = 0;
  detail::ForEachMatch(a, a + na, b, b + nb, detail::Skewed(na, nb),
                       [&count](const uint32_t*, const uint32_t*) { ++count; });
  return count;
}

/// |a ∩ b ∩ c|. The two shortest runs are walked against each other, and
/// each of their common elements gallops through the longest run from
/// just past the previous one's position.
inline uint32_t Count3(const uint32_t* a, uint32_t na, const uint32_t* b,
                       uint32_t nb, const uint32_t* c, uint32_t nc) {
  const uint32_t* run[3] = {a, b, c};
  uint32_t len[3] = {na, nb, nc};
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k < 2; ++k) {
      if (len[k] > len[k + 1]) {
        std::swap(len[k], len[k + 1]);
        std::swap(run[k], run[k + 1]);
      }
    }
  }
  const uint32_t* s2 = run[2];
  const uint32_t* const e2 = run[2] + len[2];
  uint32_t count = 0;
  detail::ForEachMatch(
      run[0], run[0] + len[0], run[1], run[1] + len[1],
      detail::Skewed(len[0], len[1]),
      [&](const uint32_t* p, const uint32_t*) {
        s2 = detail::GallopSeek(s2, e2, *p);
        if (s2 != e2 && *s2 == *p) {
          ++count;
          ++s2;
        }
      });
  return count;
}

}  // namespace intersect

/// Calls on_slots(su, sv) for every w adjacent to both u and v, ascending
/// in w, where su and sv are w's CSR slots (indices into
/// Graph::Adjacency()) in u's and v's runs. Those slots ARE the edges
/// {u, w} and {v, w}, so EdgeIndex::EdgeAtSlot names both without a
/// search.
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

/// |N(a) ∩ N(b) ∩ N(c)| without a callback (nucleus 4-clique support).
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
