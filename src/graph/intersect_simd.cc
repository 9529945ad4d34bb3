// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Kernel implementation and runtime dispatch for graph/intersect_simd.h.
//
// The vector kernel is the classic shuffle-and-compare block algorithm:
// load one 8-lane block from each run, compare every lane of A against
// every rotation of B, OR the equality masks, popcount the movemask, then
// advance whichever block's maximum is smaller (both on a tie).
// Correctness of the advance: when max(A-block) <= max(B-block), every
// yet-unseen B element is > max(B-block) >= every A-block element, so the
// A block can never match again. Matches are therefore seen exactly once,
// and (runs being duplicate-free) each A lane matches at most one B
// element ever — per-compare emission in lane order is globally ascending
// (proved in tests/intersect_test.cc by differential fuzz against the
// scalar walk).
//
// The AVX2 kernel carries __attribute__((target("avx2"))) so this file
// compiles without -mavx2 and the instructions only execute after the
// runtime probe — the binary stays runnable on any x86-64.

#include "graph/intersect_simd.h"

#include <utility>

#if !defined(GRAPHSCAPE_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define GRAPHSCAPE_INTERSECT_X86 1
#include <immintrin.h>
#endif

namespace graphscape {
namespace intersect {
namespace {

using detail::ForEachMatch;
using detail::GallopSeek;

// Counts the matches of the scalar walk, writing them to `out` when
// kWrite (`out` is unused otherwise).
template <bool kWrite>
uint32_t Walk(const uint32_t* a, uint32_t na, const uint32_t* b,
              uint32_t nb, bool gallop, uint32_t* out) {
  uint32_t count = 0;
  ForEachMatch(a, a + na, b, b + nb, gallop,
               [&](const uint32_t* pa, const uint32_t*) {
                 if constexpr (kWrite) out[count] = *pa;
                 ++count;
               });
  return count;
}

#ifdef GRAPHSCAPE_INTERSECT_X86

template <bool kWrite>
__attribute__((target("avx2"))) uint32_t BlockAvx2(const uint32_t* a,
                                                   uint32_t na,
                                                   const uint32_t* b,
                                                   uint32_t nb,
                                                   uint32_t* out) {
  uint32_t i = 0, j = 0, count = 0;
  if (na >= 8 && nb >= 8) {
    // rot[r - 1] rotates B's lanes left by r. Each rotation permutes the
    // loaded B block directly, so the seven permutes are independent.
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i rot[7];
    for (int r = 1; r < 8; ++r) {
      const __m256i shifted = _mm256_add_epi32(lanes, _mm256_set1_epi32(r));
      rot[r - 1] = _mm256_and_si256(shifted, _mm256_set1_epi32(7));
    }
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    while (true) {
      __m256i eq = _mm256_cmpeq_epi32(va, vb);
      for (const __m256i& r : rot) {
        eq = _mm256_or_si256(
            eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r)));
      }
      uint32_t mask = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
      if constexpr (kWrite) {
        for (; mask != 0; mask &= mask - 1) {
          out[count++] = a[i + static_cast<uint32_t>(__builtin_ctz(mask))];
        }
      } else {
        count += static_cast<uint32_t>(__builtin_popcount(mask));
      }
      const uint32_t amax = a[i + 7], bmax = b[j + 7];
      if (amax <= bmax) {
        i += 8;
        if (i + 8 > na) break;
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (bmax <= amax) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  return count + Walk<kWrite>(a + i, na - i, b + j, nb - j, /*gallop=*/false,
                              kWrite ? out + count : out);
}

#endif  // GRAPHSCAPE_INTERSECT_X86

// --------------------------------------------------------------- dispatch --

Kernel& Active() {
  static Kernel kernel =
      KernelSupported(Kernel::kAvx2) ? Kernel::kAvx2 : Kernel::kScalar;
  return kernel;
}

// The one dispatch behind Count and Into.
template <bool kWrite>
uint32_t Intersect(const uint32_t* a, uint32_t na, const uint32_t* b,
                   uint32_t nb, uint32_t* out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  if (detail::Skewed(na, nb)) {
    return Walk<kWrite>(a, na, b, nb, /*gallop=*/true, out);
  }
#ifdef GRAPHSCAPE_INTERSECT_X86
  if (Active() == Kernel::kAvx2) return BlockAvx2<kWrite>(a, na, b, nb, out);
#endif
  return Walk<kWrite>(a, na, b, nb, /*gallop=*/false, out);
}

}  // namespace

Kernel ActiveKernel() { return Active(); }

const char* KernelName(Kernel kernel) {
  return kernel == Kernel::kAvx2 ? "avx2" : "scalar";
}

bool KernelSupported(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return true;
#ifdef GRAPHSCAPE_INTERSECT_X86
    case Kernel::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
#endif
    default:
      return false;
  }
}

bool SetKernelForTesting(Kernel kernel) {
  if (!KernelSupported(kernel)) return false;
  Active() = kernel;
  return true;
}

uint32_t Count(const uint32_t* a, uint32_t na, const uint32_t* b,
               uint32_t nb) {
  return Intersect<false>(a, na, b, nb, nullptr);
}

uint32_t Into(const uint32_t* a, uint32_t na, const uint32_t* b,
              uint32_t nb, uint32_t* out) {
  return Intersect<true>(a, na, b, nb, out);
}

uint32_t Count3(const uint32_t* a, uint32_t na, const uint32_t* b,
                uint32_t nb, const uint32_t* c, uint32_t nc) {
  // Order the runs shortest-first; the pair intersection runs over the two
  // shortest, and only its survivors probe the longest.
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
  if (len[0] == 0) return 0;

  // Chunked pair intersection through the dispatched kernel: fixed stack
  // scratch keeps the whole 3-way path allocation-free. After each chunk
  // of the shortest run, the second run's cursor gallops past everything
  // <= the chunk max (those elements can never match a later chunk), so
  // the pair pass stays linear overall. The survivors gallop through the
  // longest run from just past its last match.
  constexpr uint32_t kChunk = 256;
  uint32_t buf[kChunk];
  const uint32_t* s0 = run[0];
  const uint32_t* s1 = run[1];
  const uint32_t* e1 = run[1] + len[1];
  const uint32_t* s2 = run[2];
  const uint32_t* e2 = run[2] + len[2];
  uint32_t count = 0;
  for (uint32_t off = 0; off < len[0]; off += kChunk) {
    const uint32_t n0 = std::min(kChunk, len[0] - off);
    const uint32_t chunk_max = s0[off + n0 - 1];
    const uint32_t* hi1 = GallopSeek(s1, e1, chunk_max);
    if (hi1 != e1 && *hi1 == chunk_max) ++hi1;
    const uint32_t pair = Into(s0 + off, n0, s1,
                               static_cast<uint32_t>(hi1 - s1), buf);
    ForEachMatch(buf, buf + pair, s2, e2, /*gallop=*/true,
                 [&](const uint32_t*, const uint32_t* p2) {
                   ++count;
                   s2 = p2 + 1;
                 });
    s1 = hi1;
    if (s1 == e1) break;
  }
  return count;
}

}  // namespace intersect
}  // namespace graphscape
