// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Sorted-run intersection — the one primitive under every triangle-
// adjacent metric (triangles, clustering, K-Truss support, nucleus). It
// is one scalar walk plus one vector block kernel:
//
//   * detail::ForEachMatch, the only merge loop and the only gallop
//     (exponential-search) loop; the gallop is taken when run lengths are
//     skewed past kGallopSkewRatio — the hub-vs-leaf adjacency case that
//     dominates the BA/CitPatent datasets;
//   * an AVX2 8x8 shuffle-and-compare block kernel for balanced runs,
//     selected ONCE at startup by runtime CPU dispatch;
//   * count-only entry points (2-way and 3-way) so callers that only
//     tally never pay a per-element callback.
//
// Preconditions shared by every entry point: runs are sorted ascending and
// duplicate-free (exactly the CSR adjacency invariant `graph/graph.h`
// guarantees). Violating either silently miscounts.
//
// Determinism contract (docs/SIMD.md): for any dispatch choice — scalar,
// AVX2, galloping, and any build of GRAPHSCAPE_SIMD — every entry point
// returns the same counts and emits the same elements in the same
// (ascending) order. Kernel selection is a pure speed knob, exactly like
// the thread count (docs/PARALLELISM.md). `tests/intersect_test.cc` pins
// all paths against each other and against brute-force oracles.
//
// Thread safety: all entry points are const over their inputs and safe to
// call concurrently. SetKernelForTesting mutates the process-wide dispatch
// and must not race with in-flight intersections (tests/benches only).

#ifndef GRAPHSCAPE_GRAPH_INTERSECT_SIMD_H_
#define GRAPHSCAPE_GRAPH_INTERSECT_SIMD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace graphscape {
namespace intersect {

/// Block-kernel flavors. Dispatch resolves once, at first use: AVX2 if the
/// CPU has it, else the scalar merge walk. Building with
/// -DGRAPHSCAPE_SIMD=OFF compiles the vector kernel out entirely.
enum class Kernel { kScalar, kAvx2 };

/// The kernel the process resolved to (the CPU probe's pick, or the last
/// SetKernelForTesting).
Kernel ActiveKernel();

/// Human-readable kernel name ("scalar", "avx2").
const char* KernelName(Kernel kernel);

/// True iff this build + CPU can execute `kernel`.
bool KernelSupported(Kernel kernel);

/// Forces the kernel; returns false (and leaves dispatch unchanged) if the
/// kernel is unsupported. Benches and the differential tests use this to
/// pin a path; production code never calls it.
bool SetKernelForTesting(Kernel kernel);

/// Runs whose longer side is at least this multiple of the shorter side
/// take the galloping walk instead of the block kernel. BM_IntersectSkew
/// (16-element short run) reads the gallop 2-3x faster than the merge walk
/// at ratio 16 and 5-9x at ratio 64; against the AVX2 kernel the
/// crossover is unmeasured (docs/SIMD.md).
inline constexpr uint32_t kGallopSkewRatio = 32;

/// |a ∩ b| for sorted duplicate-free runs. Count-only: no callback, no
/// output buffer, no allocation.
uint32_t Count(const uint32_t* a, uint32_t na, const uint32_t* b,
               uint32_t nb);

/// |a ∩ b ∩ c|, count-only. Internally intersects the two shortest runs
/// block-wise through the dispatched kernel and filters survivors against
/// the longest run by galloping; allocation-free (fixed stack scratch).
uint32_t Count3(const uint32_t* a, uint32_t na, const uint32_t* b,
                uint32_t nb, const uint32_t* c, uint32_t nc);

/// Writes a ∩ b into `out` (ascending), returns the count. `out` must
/// have room for min(na, nb) elements and may not alias either input.
uint32_t Into(const uint32_t* a, uint32_t na, const uint32_t* b,
              uint32_t nb, uint32_t* out);

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
}  // namespace intersect
}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_INTERSECT_SIMD_H_
