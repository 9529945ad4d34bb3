// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Vectorized sorted-run intersection — the hardware-conscious core under
// every triangle-adjacent metric (triangles, clustering, K-Truss support,
// nucleus). Three execution strategies over the same contract:
//
//   * a dense block-compare kernel (AVX2 8x8 / SSE2 4x4 shuffle-and-compare,
//     with a portable scalar merge as the fallback), selected ONCE at
//     startup by runtime CPU dispatch;
//   * a galloping (exponential-search) path that kicks in automatically
//     when run lengths are skewed beyond kGallopSkewRatio — the hub-vs-leaf
//     adjacency case that dominates the BA/CitPatent datasets;
//   * count-only variants (2-way and 3-way) so callers that only tally
//     never pay a per-element callback.
//
// Preconditions shared by every entry point: runs are sorted ascending and
// duplicate-free (exactly the CSR adjacency invariant `graph/graph.h`
// guarantees). Violating either silently miscounts; debug builds assert.
//
// Determinism contract (docs/SIMD.md): for any dispatch choice — scalar,
// SSE2, AVX2, galloping, and any build of GRAPHSCAPE_SIMD — every entry
// point returns the same counts and emits the same elements in the same
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
#include <cstdint>

namespace graphscape {
namespace intersect {

/// Dense-kernel flavors, ordered by preference. Dispatch resolves once, at
/// first use: AVX2 if the CPU has it, else SSE2 (x86-64 baseline), else
/// the portable scalar merge. Building with -DGRAPHSCAPE_SIMD=OFF
/// compiles the vector paths out entirely.
enum class Kernel { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The dense kernel the process resolved to (the CPU probe's pick, or
/// the last SetKernelForTesting).
Kernel ActiveKernel();

/// Human-readable kernel name ("scalar", "sse2", "avx2").
const char* KernelName(Kernel kernel);

/// True iff this build + CPU can execute `kernel`.
bool KernelSupported(Kernel kernel);

/// Forces the dense kernel; returns false (and leaves dispatch unchanged)
/// if the kernel is unsupported. Benches and the differential tests use
/// this to pin a path; production code never calls it.
bool SetKernelForTesting(Kernel kernel);

/// Runs whose longer side is at least this multiple of the shorter side
/// take the galloping path instead of the dense kernel. 32 is tuned on the
/// registry datasets: below ~16 the dense kernels still win on the merge's
/// linear scan; beyond ~64 galloping leaves easy wins on mid-skew pairs.
inline constexpr uint32_t kGallopSkewRatio = 32;

/// |a ∩ b| for sorted duplicate-free runs. Count-only: no callback, no
/// output buffer, no allocation.
uint32_t Count(const uint32_t* a, uint32_t na, const uint32_t* b,
               uint32_t nb);

/// |a ∩ b ∩ c|, count-only. Internally intersects the two shortest runs
/// block-wise through the dense kernel and filters survivors against the
/// longest run by galloping; allocation-free (fixed stack scratch).
uint32_t Count3(const uint32_t* a, uint32_t na, const uint32_t* b,
                uint32_t nb, const uint32_t* c, uint32_t nc);

/// Writes a ∩ b into `out` (ascending), returns the count. `out` must
/// have room for min(na, nb) elements and may not alias either input.
uint32_t Into(const uint32_t* a, uint32_t na, const uint32_t* b,
              uint32_t nb, uint32_t* out);

namespace detail {

/// First position in [first, last) with *pos >= target, found by
/// exponential probe + binary search over the final bracket. O(log gap),
/// monotone-pointer friendly: the header callback wrappers and the skewed
/// kernels all advance through runs with this.
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

// Non-dispatched reference paths, exposed for the differential tests and
// the microbench's before/after rows. `Count`/`Into` above route to one
// of these (or a vector kernel) — callers otherwise never pick a path by
// hand.
uint32_t CountMerge(const uint32_t* a, uint32_t na, const uint32_t* b,
                    uint32_t nb);
uint32_t CountGallop(const uint32_t* small, uint32_t ns,
                     const uint32_t* large, uint32_t nl);
uint32_t IntoMerge(const uint32_t* a, uint32_t na, const uint32_t* b,
                   uint32_t nb, uint32_t* out);
uint32_t IntoGallop(const uint32_t* small, uint32_t ns,
                    const uint32_t* large, uint32_t nl, uint32_t* out);

}  // namespace detail
}  // namespace intersect
}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_INTERSECT_SIMD_H_
