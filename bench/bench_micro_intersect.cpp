// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Microbenchmarks of the sorted-run intersection layer (docs/SIMD.md):
//
//   BM_IntersectCount_{Scalar,Simd}/<len>   balanced run-length sweep;
//       the Simd/Scalar ratio at each length is the vectorization win
//       (bench/compare_bench.py gates Simd >= 2x Scalar at 4096).
//   BM_IntersectSkew_{Scalar,Gallop}/<ratio> skewed runs (short side 16)
//       counted through the shared walk, merging or galloping; the
//       Gallop/Scalar ratio is the exponential-search win
//       (compare_bench.py gates Gallop >= 5x Scalar at 1:1024).
//   BM_IntersectDensity_Simd/<hit%>          hit-density sweep at 4096:
//       shuffle-compare cost is density-independent; this row proves it.
//   BM_IntersectCount3/<len>                 3-way count (nucleus support).
//   BM_CountTriangles_{Scalar,Simd}          before/after rows for the
//       end-to-end triangle pipeline on the collaboration graph.
//   BM_TrussSupport_{Scalar,Simd}            one count-only intersection
//       per edge (CountCommonNeighbors) before/after. K-Truss itself
//       now counts support with mark arrays (metrics/ktruss.h); the
//       rows stay as a per-edge intersection workload.
//
// Scalar rows force Kernel::kScalar via SetKernelForTesting, so one
// binary produces both sides of every comparison on the same machine in
// the same run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/edge_index.h"
#include "graph/intersect.h"
#include "graph/intersect_simd.h"
#include "metrics/triangles.h"

namespace graphscape {
namespace {

using intersect::Kernel;

// Sorted duplicate-free run of `len` values from [0, universe).
std::vector<uint32_t> MakeRun(uint32_t len, uint32_t universe, Rng* rng) {
  std::set<uint32_t> values;
  while (values.size() < len && values.size() < universe) {
    values.insert(rng->UniformInt(universe));
  }
  return std::vector<uint32_t>(values.begin(), values.end());
}

// Forces `kernel` for the benchmark's lifetime; restores on destruction.
// Falls back to the widest supported kernel when the requested one is
// unavailable (SIMD-off build, non-AVX2 host) so the rows still run.
class ScopedKernel {
 public:
  explicit ScopedKernel(Kernel kernel) : previous_(intersect::ActiveKernel()) {
    intersect::SetKernelForTesting(kernel);
  }
  ~ScopedKernel() { intersect::SetKernelForTesting(previous_); }

 private:
  Kernel previous_;
};

// Balanced runs, ~50% hit density (universe = 2 * len).
void IntersectCountBalanced(benchmark::State& state, Kernel kernel) {
  const uint32_t len = static_cast<uint32_t>(state.range(0));
  Rng rng(17);
  const std::vector<uint32_t> a = MakeRun(len, 2 * len, &rng);
  const std::vector<uint32_t> b = MakeRun(len, 2 * len, &rng);
  ScopedKernel scoped(kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        intersect::Count(a.data(), static_cast<uint32_t>(a.size()), b.data(),
                         static_cast<uint32_t>(b.size())));
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}

void BM_IntersectCount_Scalar(benchmark::State& state) {
  IntersectCountBalanced(state, Kernel::kScalar);
}
BENCHMARK(BM_IntersectCount_Scalar)->RangeMultiplier(4)->Range(64, 1 << 14);

void BM_IntersectCount_Simd(benchmark::State& state) {
  IntersectCountBalanced(state, intersect::ActiveKernel());
}
BENCHMARK(BM_IntersectCount_Simd)->RangeMultiplier(4)->Range(64, 1 << 14);

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

// Hit-density sweep at length 4096: universe scales so the expected
// overlap is ~range(0) percent of each run.
void BM_IntersectDensity_Simd(benchmark::State& state) {
  const uint32_t len = 4096;
  const uint32_t density = static_cast<uint32_t>(state.range(0));
  const uint32_t universe = std::max(len, len * 100 / std::max(1u, density));
  Rng rng(43);
  const std::vector<uint32_t> a = MakeRun(len, universe, &rng);
  const std::vector<uint32_t> b = MakeRun(len, universe, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        intersect::Count(a.data(), static_cast<uint32_t>(a.size()), b.data(),
                         static_cast<uint32_t>(b.size())));
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectDensity_Simd)
    ->ArgName("hitpct")
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(90);

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

// ------------------------------------------------------- end-to-end rows --

Graph CollabGraph(uint32_t n) {
  CollaborationOptions options;
  options.num_vertices = n;
  options.num_groups = n / 2;
  options.num_planted_cores = 2;
  options.planted_core_size = 24;
  Rng rng(11);  // same seed/shape as bench_micro_metrics BM_TriangleCount
  return CollaborationNetwork(options, &rng);
}

void CountTrianglesWithKernel(benchmark::State& state, Kernel kernel) {
  const Graph g = CollabGraph(1 << 16);
  ScopedKernel scoped(kernel);
  for (auto _ : state) benchmark::DoNotOptimize(CountTriangles(g, {1, 0}));
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}

void BM_CountTriangles_Scalar(benchmark::State& state) {
  CountTrianglesWithKernel(state, Kernel::kScalar);
}
BENCHMARK(BM_CountTriangles_Scalar);

void BM_CountTriangles_Simd(benchmark::State& state) {
  CountTrianglesWithKernel(state, intersect::ActiveKernel());
}
BENCHMARK(BM_CountTriangles_Simd);

// One count-only intersection per edge. This was K-Truss's support pass
// before it moved to mark arrays; it is kept as an intersection workload.
void TrussSupportWithKernel(benchmark::State& state, Kernel kernel) {
  const Graph g = CollabGraph(1 << 15);
  const EdgeIndex index(g);
  ScopedKernel scoped(kernel);
  for (auto _ : state) {
    uint64_t total = 0;
    for (uint32_t e = 0; e < index.NumEdges(); ++e) {
      total += CountCommonNeighbors(g, index.U(e), index.V(e));
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}

void BM_TrussSupport_Scalar(benchmark::State& state) {
  TrussSupportWithKernel(state, Kernel::kScalar);
}
BENCHMARK(BM_TrussSupport_Scalar);

void BM_TrussSupport_Simd(benchmark::State& state) {
  TrussSupportWithKernel(state, intersect::ActiveKernel());
}
BENCHMARK(BM_TrussSupport_Simd);

}  // namespace
}  // namespace graphscape
