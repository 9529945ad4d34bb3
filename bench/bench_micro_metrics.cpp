// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Microbenchmarks of the scalar-field substrates: K-Core peeling, triangle
// counting, K-Truss peeling, PageRank, and sampled Brandes betweenness.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gen/generators.h"
#include "metrics/centrality.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "metrics/nucleus.h"
#include "metrics/pagerank.h"
#include "metrics/triangles.h"

namespace graphscape {
namespace {

Graph CollabGraph(uint32_t n) {
  CollaborationOptions options;
  options.num_vertices = n;
  options.num_groups = n / 2;
  options.num_planted_cores = 2;
  options.planted_core_size = 24;
  Rng rng(11);
  return CollaborationNetwork(options, &rng);
}

void BM_CoreNumbers(benchmark::State& state) {
  const Graph g = CollabGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(CoreNumbers(g));
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_CoreNumbers)->Range(1 << 10, 1 << 16);

void BM_TriangleCount(benchmark::State& state) {
  const Graph g = CollabGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(CountTriangles(g));
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_TriangleCount)->Range(1 << 10, 1 << 16);

void BM_TrussNumbers(benchmark::State& state) {
  const Graph g = CollabGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(TrussNumbers(g));
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_TrussNumbers)->Range(1 << 10, 1 << 15);

void BM_PageRank(benchmark::State& state) {
  const Graph g = CollabGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(PageRank(g));
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_PageRank)->Range(1 << 10, 1 << 16);

// Parallel metric rows (docs/PARALLELISM.md): each /threads:N row is
// bit-identical to the same call on one lane — tests/parallel_test.cc
// pins that; these rows record the speed side.
void BM_PageRankParallel(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  const Graph g = CollabGraph(1 << 16);
  const ParallelOptions parallel{threads, 0};
  for (auto _ : state)
    benchmark::DoNotOptimize(PageRankParallel(g, {}, parallel));
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_PageRankParallel)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

// Ablation: the dense-subgraph hierarchy ladder — core (1,2), truss (2,3),
// nucleus (3,4) — each rung costs roughly an order of magnitude more.
void BM_Nucleus34(benchmark::State& state) {
  const Graph g = CollabGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(Nucleus34(g));
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_Nucleus34)->Range(1 << 10, 1 << 13);

void BM_BetweennessSampled(benchmark::State& state) {
  const Graph g = CollabGraph(1 << 13);
  BetweennessOptions options;
  options.num_samples = static_cast<uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(BetweennessCentrality(g, options));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BetweennessSampled)->RangeMultiplier(4)->Range(16, 256);

}  // namespace
}  // namespace graphscape
