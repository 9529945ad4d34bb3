// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Sorted-run intersection: one scalar walk, detail::ForEachMatch, which is
// the only merge loop in src/, over detail::GallopSeek, the only gallop
// (exponential-search) loop. The gallop is taken when run lengths are
// skewed past kGallopSkewRatio (detail::Skewed): the hub-vs-leaf
// adjacency case that dominates the BA/CitPatent datasets.
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
//   * metrics/ktruss.cc — detail::Skewed: search a hub's run, not walk it;
//   * metrics/nucleus.cc — detail::Skewed and a galloping ForEachMatch to
//     find a pivot's triangles through a hub's run; GallopSeek over an
//     edge's {third vertex, triangle id} run in the peel.
//
//   Triangle counts and K-Truss and nucleus support are mark passes over
//   each metric's own runs, with no intersection.

#ifndef GRAPHSCAPE_GRAPH_INTERSECT_H_
#define GRAPHSCAPE_GRAPH_INTERSECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace graphscape {
namespace intersect {

/// Runs whose longer side is at least this multiple of the shorter side
/// take the galloping walk instead of the merge. BM_IntersectSkew
/// (16-element short run) reads the gallop 2-3x faster than the merge walk
/// at ratio 16 and 5-9x at ratio 64.
inline constexpr uint32_t kGallopSkewRatio = 32;

namespace detail {

/// First position in [first, last) whose key is >= target, found by
/// exponential probe + binary search over the final bracket. O(log gap),
/// monotone-pointer friendly. key(x) is x's sort key: x itself in a
/// vertex run, x.w in the nucleus peel's {vertex, id} runs.
template <typename T, typename Key>
inline T* GallopSeek(T* first, T* last, uint32_t target, Key key) {
  if (first == last || key(*first) >= target) return first;
  // Invariant: key(*lo) < target.
  T* lo = first;
  size_t step = 1;
  while (static_cast<size_t>(last - lo) > step && key(lo[step]) < target) {
    lo += step;
    step <<= 1;
  }
  T* hi = static_cast<size_t>(last - lo) > step ? lo + step + 1 : last;
  return std::lower_bound(
      lo + 1, hi, target,
      [&key](const T& x, uint32_t value) { return key(x) < value; });
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
      b = GallopSeek(b, eb, *a, [](uint32_t x) { return x; });
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

}  // namespace intersect
}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_INTERSECT_H_
