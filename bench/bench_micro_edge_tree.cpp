// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Microbenchmarks: Algorithm 3 vs the naive dual-graph method — the paper's
// central performance claim (§II-C, Table II's tc vs te). The hub ablation
// shows the naive method's Θ(sum deg²) blowup on skewed graphs while
// Algorithm 3 stays near-linear in E.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "scalar/edge_scalar_tree.h"

namespace graphscape {
namespace {

EdgeScalarField RandomEdgeField(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(g.NumEdges());
  for (auto& v : values) v = static_cast<double>(rng.UniformInt(64));
  return EdgeScalarField("f", std::move(values));
}

void BM_EdgeTree_Optimized(benchmark::State& state) {
  Rng rng(1);
  const Graph g = BarabasiAlbert(static_cast<uint32_t>(state.range(0)), 4,
                                 &rng);
  const EdgeScalarField field = RandomEdgeField(g, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildEdgeScalarTree(g, field));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_EdgeTree_Optimized)->Range(1 << 10, 1 << 16);

void BM_EdgeTree_Naive(benchmark::State& state) {
  Rng rng(1);
  const Graph g = BarabasiAlbert(static_cast<uint32_t>(state.range(0)), 4,
                                 &rng);
  const EdgeScalarField field = RandomEdgeField(g, 2);
  for (auto _ : state) {
    auto result = BuildEdgeScalarTreeNaive(g, field);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_EdgeTree_Naive)->Range(1 << 10, 1 << 14);

// Fixed-size build row tracked by bench/compare_bench.py.
void BM_BuildEdgeScalarTree(benchmark::State& state) {
  Rng rng(1);
  const Graph g = BarabasiAlbert(1 << 16, 4, &rng);
  const EdgeScalarField field = RandomEdgeField(g, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildEdgeScalarTree(g, field));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_BuildEdgeScalarTree);

// Hub ablation: a star-heavy graph where sum deg^2 explodes. Algorithm 3 is
// immune; the naive method pays quadratically in the hub degree.
Graph HubGraph(uint32_t hub_degree) {
  GraphBuilder builder(hub_degree + 200);
  for (uint32_t i = 1; i <= hub_degree; ++i) builder.AddEdge(0, i);
  // A sparse tail so the graph isn't just a star.
  for (uint32_t i = hub_degree; i + 1 < hub_degree + 200; ++i)
    builder.AddEdge(i, i + 1);
  return builder.Build();
}

void BM_EdgeTree_Optimized_Hub(benchmark::State& state) {
  const Graph g = HubGraph(static_cast<uint32_t>(state.range(0)));
  const EdgeScalarField field = RandomEdgeField(g, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildEdgeScalarTree(g, field));
  }
}
BENCHMARK(BM_EdgeTree_Optimized_Hub)->Range(256, 8192);

void BM_EdgeTree_Naive_Hub(benchmark::State& state) {
  const Graph g = HubGraph(static_cast<uint32_t>(state.range(0)));
  const EdgeScalarField field = RandomEdgeField(g, 3);
  for (auto _ : state) {
    auto result = BuildEdgeScalarTreeNaive(g, field);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EdgeTree_Naive_Hub)->Range(256, 4096);

}  // namespace
}  // namespace graphscape
