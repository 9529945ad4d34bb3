// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Microbenchmarks of the sorted-run intersection layer
// (graph/intersect.h; docs/ARCHITECTURE.md, "Sorted-run intersection"):
//
//   BM_IntersectSkew_{Scalar,Gallop}/<ratio> skewed runs (short side 16)
//       counted through the shared walk, merging or galloping; the
//       Gallop/Scalar ratio is the exponential-search win
//       (compare_bench.py gates Gallop >= 5x Scalar at 1:1024).
//   BM_IntersectCount3/<len>                 3-way count (nucleus support).
//
// The triangle pipeline's end-to-end row is bench_micro_metrics'
// BM_TriangleCount.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "graph/intersect.h"

namespace graphscape {
namespace {

// Sorted duplicate-free run of `len` values from [0, universe).
std::vector<uint32_t> MakeRun(uint32_t len, uint32_t universe, Rng* rng) {
  std::set<uint32_t> values;
  while (values.size() < len && values.size() < universe) {
    values.insert(rng->UniformInt(universe));
  }
  return std::vector<uint32_t>(values.begin(), values.end());
}

// Skewed runs: short side fixed at 16, long side 16 * ratio. Both rows
// count through the shared walk, detail::ForEachMatch, merging or
// galloping — the public Count would route the scalar row through
// galloping too (skew >= kGallopSkewRatio), hiding exactly the
// comparison this row exists to make.
void IntersectSkew(benchmark::State& state, bool gallop) {
  const uint32_t ratio = static_cast<uint32_t>(state.range(0));
  const uint32_t short_len = 16;
  const uint32_t long_len = short_len * ratio;
  Rng rng(29);
  const std::vector<uint32_t> a = MakeRun(short_len, 2 * long_len, &rng);
  const std::vector<uint32_t> b = MakeRun(long_len, 2 * long_len, &rng);
  for (auto _ : state) {
    uint32_t count = 0;
    intersect::detail::ForEachMatch(
        a.data(), a.data() + a.size(), b.data(), b.data() + b.size(), gallop,
        [&](const uint32_t*, const uint32_t*) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}

void BM_IntersectSkew_Scalar(benchmark::State& state) {
  IntersectSkew(state, /*gallop=*/false);
}
BENCHMARK(BM_IntersectSkew_Scalar)
    ->ArgName("ratio")
    ->RangeMultiplier(4)
    ->Range(16, 4096);

void BM_IntersectSkew_Gallop(benchmark::State& state) {
  IntersectSkew(state, /*gallop=*/true);
}
BENCHMARK(BM_IntersectSkew_Gallop)
    ->ArgName("ratio")
    ->RangeMultiplier(4)
    ->Range(16, 4096);

// 3-way count-only intersection — the nucleus 4-clique support shape.
void BM_IntersectCount3(benchmark::State& state) {
  const uint32_t len = static_cast<uint32_t>(state.range(0));
  Rng rng(59);
  const std::vector<uint32_t> a = MakeRun(len, 2 * len, &rng);
  const std::vector<uint32_t> b = MakeRun(len, 2 * len, &rng);
  const std::vector<uint32_t> c = MakeRun(len, 2 * len, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(intersect::Count3(
        a.data(), static_cast<uint32_t>(a.size()), b.data(),
        static_cast<uint32_t>(b.size()), c.data(),
        static_cast<uint32_t>(c.size())));
  }
  state.SetItemsProcessed(state.iterations() *
                          (a.size() + b.size() + c.size()));
}
BENCHMARK(BM_IntersectCount3)->RangeMultiplier(4)->Range(64, 1 << 12);

}  // namespace
}  // namespace graphscape
