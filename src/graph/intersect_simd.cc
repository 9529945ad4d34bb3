// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Kernel implementations and runtime dispatch for graph/intersect_simd.h.
//
// The vector kernels are the classic shuffle-and-compare block algorithm:
// load one aligned-width block from each run, compare every lane of A
// against every rotation of B, OR the equality masks, popcount the
// movemask, then advance whichever block's maximum is smaller (both on a
// tie). Correctness of the advance: when max(A-block) <= max(B-block),
// every yet-unseen B element is > max(B-block) >= every A-block element,
// so the A block can never match again. Matches are therefore seen exactly
// once, and (runs being duplicate-free) each A lane matches at most one B
// element ever — per-compare emission in lane order is globally ascending
// (proved in tests/intersect_test.cc by differential fuzz against the
// scalar merge).
//
// AVX2 functions carry __attribute__((target("avx2"))) so this file
// compiles without -mavx2 and the instructions only execute after the
// runtime probe — the binary stays runnable on any x86-64.

#include "graph/intersect_simd.h"

#include <cassert>

#if !defined(GRAPHSCAPE_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define GRAPHSCAPE_INTERSECT_X86 1
#include <immintrin.h>
#endif

namespace graphscape {
namespace intersect {

namespace detail {

uint32_t CountMerge(const uint32_t* a, uint32_t na, const uint32_t* b,
                    uint32_t nb) {
  // The seed's branchy merge, verbatim: this IS the scalar kernel every
  // other path must agree with.
  const uint32_t* ea = a + na;
  const uint32_t* eb = b + nb;
  uint32_t count = 0;
  while (a != ea && b != eb) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

uint32_t IntoMerge(const uint32_t* a, uint32_t na, const uint32_t* b,
                   uint32_t nb, uint32_t* out) {
  const uint32_t* ea = a + na;
  const uint32_t* eb = b + nb;
  uint32_t count = 0;
  while (a != ea && b != eb) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      out[count++] = *a;
      ++a;
      ++b;
    }
  }
  return count;
}

uint32_t CountGallop(const uint32_t* small, uint32_t ns,
                     const uint32_t* large, uint32_t nl) {
  const uint32_t* end = large + nl;
  const uint32_t* p = large;
  uint32_t count = 0;
  for (uint32_t i = 0; i < ns; ++i) {
    p = GallopSeek(p, end, small[i]);
    if (p == end) break;
    if (*p == small[i]) {
      ++count;
      ++p;
    }
  }
  return count;
}

uint32_t IntoGallop(const uint32_t* small, uint32_t ns,
                    const uint32_t* large, uint32_t nl, uint32_t* out) {
  const uint32_t* end = large + nl;
  const uint32_t* p = large;
  uint32_t count = 0;
  for (uint32_t i = 0; i < ns; ++i) {
    p = GallopSeek(p, end, small[i]);
    if (p == end) break;
    if (*p == small[i]) {
      out[count++] = small[i];
      ++p;
    }
  }
  return count;
}

}  // namespace detail

namespace {

using detail::CountGallop;
using detail::CountMerge;
using detail::GallopSeek;
using detail::IntoGallop;
using detail::IntoMerge;

#ifdef GRAPHSCAPE_INTERSECT_X86

// ------------------------------------------------------------- SSE2 4x4 --
// SSE2 is x86-64 baseline, so these need no target attribute and no probe.

uint32_t CountSse2(const uint32_t* a, uint32_t na, const uint32_t* b,
                   uint32_t nb) {
  uint32_t i = 0, j = 0, count = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    while (true) {
      __m128i eq = _mm_cmpeq_epi32(va, vb);
      eq = _mm_or_si128(
          eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));  // 0321
      eq = _mm_or_si128(
          eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4e)));  // 1032
      eq = _mm_or_si128(
          eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));  // 2103
      count += static_cast<uint32_t>(
          __builtin_popcount(_mm_movemask_ps(_mm_castsi128_ps(eq))));
      const uint32_t amax = a[i + 3], bmax = b[j + 3];
      if (amax <= bmax) {
        i += 4;
        if (i + 4 > na) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (bmax <= amax) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  return count + CountMerge(a + i, na - i, b + j, nb - j);
}

uint32_t IntoSse2(const uint32_t* a, uint32_t na, const uint32_t* b,
                  uint32_t nb, uint32_t* out) {
  uint32_t i = 0, j = 0, count = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    while (true) {
      __m128i eq = _mm_cmpeq_epi32(va, vb);
      eq = _mm_or_si128(eq,
                        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));
      eq = _mm_or_si128(eq,
                        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4e)));
      eq = _mm_or_si128(eq,
                        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));
      uint32_t mask = static_cast<uint32_t>(
          _mm_movemask_ps(_mm_castsi128_ps(eq)));
      while (mask != 0) {
        const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(mask));
        out[count++] = a[i + lane];
        mask &= mask - 1;
      }
      const uint32_t amax = a[i + 3], bmax = b[j + 3];
      if (amax <= bmax) {
        i += 4;
        if (i + 4 > na) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (bmax <= amax) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  return count + IntoMerge(a + i, na - i, b + j, nb - j, out + count);
}

// ------------------------------------------------------------- AVX2 8x8 --

__attribute__((target("avx2"))) uint32_t CountAvx2(const uint32_t* a,
                                                   uint32_t na,
                                                   const uint32_t* b,
                                                   uint32_t nb) {
  uint32_t i = 0, j = 0, count = 0;
  if (na >= 8 && nb >= 8) {
    const __m256i r1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    const __m256i r2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
    const __m256i r3 = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
    const __m256i r4 = _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3);
    const __m256i r5 = _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4);
    const __m256i r6 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
    const __m256i r7 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    while (true) {
      __m256i eq = _mm256_cmpeq_epi32(va, vb);
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r1)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r2)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r3)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r4)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r5)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r6)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r7)));
      count += static_cast<uint32_t>(
          __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(eq))));
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
  return count + CountMerge(a + i, na - i, b + j, nb - j);
}

__attribute__((target("avx2"))) uint32_t IntoAvx2(const uint32_t* a,
                                                  uint32_t na,
                                                  const uint32_t* b,
                                                  uint32_t nb,
                                                  uint32_t* out) {
  uint32_t i = 0, j = 0, count = 0;
  if (na >= 8 && nb >= 8) {
    const __m256i r1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    const __m256i r2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
    const __m256i r3 = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
    const __m256i r4 = _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3);
    const __m256i r5 = _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4);
    const __m256i r6 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
    const __m256i r7 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    while (true) {
      __m256i eq = _mm256_cmpeq_epi32(va, vb);
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r1)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r2)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r3)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r4)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r5)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r6)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r7)));
      uint32_t mask = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
      while (mask != 0) {
        const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(mask));
        out[count++] = a[i + lane];
        mask &= mask - 1;
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
  return count + IntoMerge(a + i, na - i, b + j, nb - j, out + count);
}

#endif  // GRAPHSCAPE_INTERSECT_X86

// --------------------------------------------------------------- dispatch --

using CountFn = uint32_t (*)(const uint32_t*, uint32_t, const uint32_t*,
                             uint32_t);
using IntoFn = uint32_t (*)(const uint32_t*, uint32_t, const uint32_t*,
                            uint32_t, uint32_t*);

struct Dispatch {
  Kernel kernel;
  CountFn count;
  IntoFn into;
};

Dispatch MakeDispatch(Kernel kernel) {
  switch (kernel) {
#ifdef GRAPHSCAPE_INTERSECT_X86
    case Kernel::kAvx2:
      return {Kernel::kAvx2, &CountAvx2, &IntoAvx2};
    case Kernel::kSse2:
      return {Kernel::kSse2, &CountSse2, &IntoSse2};
#endif
    default:
      return {Kernel::kScalar, &CountMerge, &IntoMerge};
  }
}

bool ProbeSupported(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return true;
#ifdef GRAPHSCAPE_INTERSECT_X86
    case Kernel::kSse2:
      return true;  // x86-64 baseline
    case Kernel::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
#endif
    default:
      return false;
  }
}

Dispatch ResolveDispatch() {
  for (const Kernel kernel : {Kernel::kAvx2, Kernel::kSse2}) {
    if (ProbeSupported(kernel)) return MakeDispatch(kernel);
  }
  return MakeDispatch(Kernel::kScalar);
}

Dispatch& ActiveDispatch() {
  static Dispatch dispatch = ResolveDispatch();
  return dispatch;
}

}  // namespace

Kernel ActiveKernel() { return ActiveDispatch().kernel; }

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kSse2:
      return "sse2";
    case Kernel::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

bool KernelSupported(Kernel kernel) { return ProbeSupported(kernel); }

bool SetKernelForTesting(Kernel kernel) {
  if (!ProbeSupported(kernel)) return false;
  ActiveDispatch() = MakeDispatch(kernel);
  return true;
}

uint32_t Count(const uint32_t* a, uint32_t na, const uint32_t* b,
               uint32_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  if (static_cast<uint64_t>(nb) >=
      static_cast<uint64_t>(na) * kGallopSkewRatio) {
    return CountGallop(a, na, b, nb);
  }
  return ActiveDispatch().count(a, na, b, nb);
}

uint32_t Into(const uint32_t* a, uint32_t na, const uint32_t* b,
              uint32_t nb, uint32_t* out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  if (static_cast<uint64_t>(nb) >=
      static_cast<uint64_t>(na) * kGallopSkewRatio) {
    return IntoGallop(a, na, b, nb, out);
  }
  return ActiveDispatch().into(a, na, b, nb, out);
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
  // the pair pass stays linear overall.
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
    for (uint32_t k = 0; k < pair; ++k) {
      s2 = GallopSeek(s2, e2, buf[k]);
      if (s2 == e2) return count;
      if (*s2 == buf[k]) {
        ++count;
        ++s2;
      }
    }
    s1 = hi1;
    if (s1 == e1) break;
  }
  return count;
}

}  // namespace intersect
}  // namespace graphscape
