// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Microbenchmarks of the terrain pipeline: the mass-balanced layout (of
// a plateau-heavy K-Core tree and a distinct-valued PageRank tree),
// rasterization by resolution, the oblique software render and the
// spring layout.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gen/generators.h"
#include "layout/spring_layout.h"
#include "metrics/kcore.h"
#include "metrics/pagerank.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "terrain/render.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"

namespace graphscape {
namespace {

Graph BenchGraph(uint32_t n) {
  CollaborationOptions options;
  options.num_vertices = n;
  options.num_groups = n / 2;
  Rng rng(5);
  return CollaborationNetwork(options, &rng);
}

SuperTree BenchTree(uint32_t n) {
  const Graph g = BenchGraph(n);
  return SuperTree(BuildVertexScalarTree(
      g, VertexScalarField::FromCounts("KC", CoreNumbers(g))));
}

void BM_Layout_Balanced(benchmark::State& state) {
  const SuperTree tree = BenchTree(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(BuildTerrainLayout(tree));
  state.counters["super_nodes"] = tree.NumNodes();
}
BENCHMARK(BM_Layout_Balanced)->Range(1 << 12, 1 << 16);

// The same graph under a PageRank field: values are nearly all distinct,
// so the super tree keeps most vertices and the layout is as large as a
// distinct-valued attribute terrain's (the KC tree above is a few
// hundred plateaus).
void BM_Layout_Distinct(benchmark::State& state) {
  const Graph g = BenchGraph(static_cast<uint32_t>(state.range(0)));
  const SuperTree tree(
      BuildVertexScalarTree(g, VertexScalarField("PR", PageRank(g))));
  for (auto _ : state) benchmark::DoNotOptimize(BuildTerrainLayout(tree));
  state.counters["super_nodes"] = tree.NumNodes();
}
BENCHMARK(BM_Layout_Distinct)->Arg(1 << 16);

void BM_Rasterize(benchmark::State& state) {
  const SuperTree tree = BenchTree(1 << 14);
  const TerrainLayout layout = BuildTerrainLayout(tree);
  RasterOptions options;
  options.width = static_cast<uint32_t>(state.range(0));
  options.height = options.width;
  for (auto _ : state)
    benchmark::DoNotOptimize(RasterizeTerrain(layout, options));
  state.SetItemsProcessed(state.iterations() * options.width * options.width);
}
BENCHMARK(BM_Rasterize)->RangeMultiplier(2)->Range(128, 1024);

// Row-band parallel paint at a fixed 1024x1024 grid; the field is
// bit-identical to the sequential row for every thread count
// (tests/parallel_test.cc). Bands re-decode every footprint, so the
// useful width saturates near the nesting-depth overdraw bound.
void BM_RasterizeParallel(benchmark::State& state) {
  const SuperTree tree = BenchTree(1 << 14);
  const TerrainLayout layout = BuildTerrainLayout(tree);
  RasterOptions options;
  options.width = options.height = 1024;
  options.num_threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(RasterizeTerrain(layout, options));
  state.SetItemsProcessed(state.iterations() * options.width * options.width);
}
BENCHMARK(BM_RasterizeParallel)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

void BM_RenderOblique(benchmark::State& state) {
  const SuperTree tree = BenchTree(1 << 14);
  const TerrainLayout layout = BuildTerrainLayout(tree);
  RasterOptions raster;
  raster.width = static_cast<uint32_t>(state.range(0));
  raster.height = raster.width;
  const HeightField field = RasterizeTerrain(layout, raster);
  const auto colors = HeightColors(tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RenderOblique(field, colors, Camera{}, 800, 600));
  }
}
BENCHMARK(BM_RenderOblique)->RangeMultiplier(2)->Range(128, 512);

void BM_SpringLayout(benchmark::State& state) {
  CollaborationOptions options;
  options.num_vertices = static_cast<uint32_t>(state.range(0));
  options.num_groups = options.num_vertices / 2;
  Rng rng(5);
  const Graph g = CollaborationNetwork(options, &rng);
  SpringLayoutOptions spring;
  spring.iterations = 20;
  for (auto _ : state) benchmark::DoNotOptimize(SpringLayout(g, spring));
  // Throughput in vertex-iterations: the grid-binned loop's unit of work.
  state.SetItemsProcessed(state.iterations() * g.NumVertices() *
                          spring.iterations);
}
BENCHMARK(BM_SpringLayout)->Range(1 << 12, 1 << 14);

// Per-vertex force passes on all lanes (binning stays sequential);
// positions are bit-identical to the sequential row for every width.
void BM_SpringLayoutParallel(benchmark::State& state) {
  CollaborationOptions options;
  options.num_vertices = 1 << 14;
  options.num_groups = options.num_vertices / 2;
  Rng rng(5);
  const Graph g = CollaborationNetwork(options, &rng);
  SpringLayoutOptions spring;
  spring.iterations = 20;
  spring.num_threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(SpringLayout(g, spring));
  state.SetItemsProcessed(state.iterations() * g.NumVertices() *
                          spring.iterations);
}
BENCHMARK(BM_SpringLayoutParallel)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace graphscape
