// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The determinism contract of the parallel construction engine
// (docs/PARALLELISM.md), pinned:
//
//  * pool primitives — every index visited exactly once, lane ids dense;
//  * the two *Parallel tree-build forwards — byte-identical
//    TreeArtifact serialization vs the builds they forward to;
//  * parallel PageRank / layout / raster — exactly equal to the same call
//    on one lane for every width (PageRank: to a push-form oracle).
//
// Everything here runs under the CI TSan leg with GRAPHSCAPE_THREADS=4,
// which is what actually exercises the pool's publication/completion
// protocol under instrumentation.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "layout/spring_layout.h"
#include "metrics/pagerank.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "scalar/tree_io.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"

namespace graphscape {
namespace {

// The thread counts the acceptance criteria pin: sequential fallback, a
// power of two, and an odd width that never divides n evenly.
const uint32_t kWidths[] = {1, 2, 4, 7};

// ---------------------------------------------------------------- pool --

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr uint64_t kCount = 10007;  // prime: never divides into blocks
  for (const uint32_t width : kWidths) {
    std::vector<std::atomic<uint32_t>> hits(kCount);
    for (auto& h : hits) h.store(0);
    ParallelFor(0, kCount, {width, 64},
                [&](uint64_t i) { hits[i].fetch_add(1); });
    for (uint64_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " width " << width;
    }
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  uint32_t calls = 0;
  ParallelFor(5, 5, {4, 0}, [&](uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // grain far above count: collapses to one inline block.
  std::atomic<uint32_t> hits{0};
  ParallelFor(0, 3, {4, 1024}, [&](uint64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 3u);
}

TEST(ParallelForBlocksTest, LaneIdsAreDense) {
  constexpr uint64_t kBlocks = 64;
  const uint32_t width = 4;
  const uint32_t lanes = EffectiveLanes({width, 1}, kBlocks);
  ASSERT_GE(lanes, 1u);
  ASSERT_LE(lanes, width);
  std::vector<std::atomic<uint32_t>> blocks_run(kBlocks);
  for (auto& b : blocks_run) b.store(0);
  std::atomic<uint32_t> max_lane{0};
  ParallelForBlocks(kBlocks, {width, 0}, [&](uint64_t block, uint32_t lane) {
    blocks_run[block].fetch_add(1);
    uint32_t seen = max_lane.load();
    while (lane > seen && !max_lane.compare_exchange_weak(seen, lane)) {
    }
  });
  for (uint64_t b = 0; b < kBlocks; ++b) ASSERT_EQ(blocks_run[b].load(), 1u);
  EXPECT_LT(max_lane.load(), lanes);
}

TEST(EffectiveLanesTest, ClampsToBlocksAndCeiling) {
  EXPECT_EQ(EffectiveLanes({1, 1}, 100), 1u);
  EXPECT_EQ(EffectiveLanes({8, 1}, 3), 3u);   // never more lanes than blocks
  EXPECT_EQ(EffectiveLanes({8, 1}, 0), 0u);   // empty range: no lanes
  EXPECT_LE(EffectiveLanes({0, 1}, 1u << 20), kMaxThreads);
}

// ------------------------------------------------- oracle graph families --

std::vector<double> DistinctField(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble();
  return values;
}

std::vector<double> PlateauField(uint32_t n, uint32_t levels, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = static_cast<double>(rng.UniformInt(levels));
  return values;
}

// Serialized bytes of the full artifact (SuperTree + field), the same
// byte-identity oracle the cross-compiler CI job uses.
std::string ArtifactBytes(const ScalarTree& tree, const std::string& name,
                          const std::vector<double>& field_values) {
  TreeArtifact artifact;
  artifact.tree = SuperTree(tree);
  artifact.field_name = name;
  artifact.field_values = field_values;
  const auto bytes = SerializeTreeArtifact(artifact);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

// ------------------------------------------------- tree-build forwards --

// BuildVertexScalarTreeParallel and BuildEdgeScalarTreeParallel only
// forward to the sequential builds; width 0 is the DefaultThreads() case.
TEST(ParallelTreeForwardTest, ForwardsMatchSequentialBuilds) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(512, 4, &rng);
  const std::vector<double> vertex_values =
      PlateauField(g.NumVertices(), 5, 13);
  const std::vector<double> edge_values = PlateauField(g.NumEdges(), 6, 2);
  const VertexScalarField vertex_field("f", vertex_values);
  const EdgeScalarField edge_field("f", edge_values);
  const std::string vertex_bytes =
      ArtifactBytes(BuildVertexScalarTree(g, vertex_field), "f", vertex_values);
  const std::string edge_bytes =
      ArtifactBytes(BuildEdgeScalarTree(g, edge_field), "f", edge_values);
  for (const uint32_t width : {0u, 1u, 2u, 4u}) {
    const ParallelOptions options{width, 0};
    const ScalarTree vertex_tree =
        BuildVertexScalarTreeParallel(g, vertex_field, options);
    const ScalarTree edge_tree =
        BuildEdgeScalarTreeParallel(g, edge_field, options);
    EXPECT_EQ(ArtifactBytes(vertex_tree, "f", vertex_values), vertex_bytes)
        << "width " << width;
    EXPECT_EQ(ArtifactBytes(edge_tree, "f", edge_values), edge_bytes)
        << "width " << width;
  }
}

// ------------------------------------------------------ parallel metrics --

// Independent oracle: the push form of power iteration. Each v scatters
// `damping * rank[v] / deg(v)` to its neighbours in ascending v order, so
// next[u] receives the same terms in the same order as the library's
// pull over u's sorted CSR run — the results must be bit-identical.
std::vector<double> PushPageRank(const Graph& g,
                                 const PageRankOptions& options) {
  const uint32_t n = g.NumVertices();
  if (n == 0) return {};
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n, 0.0);
  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (uint32_t v = 0; v < n; ++v) {
      if (g.Degree(v) == 0) dangling += rank[v];
    }
    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling * inv_n;
    for (uint32_t v = 0; v < n; ++v) next[v] = base;
    for (uint32_t v = 0; v < n; ++v) {
      const uint32_t d = g.Degree(v);
      if (d == 0) continue;
      const double share = options.damping * rank[v] / d;
      for (const VertexId u : g.Neighbors(v)) next[u] += share;
    }
    double delta = 0.0;
    for (uint32_t v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (delta < options.tolerance) break;
  }
  return rank;
}

TEST(ParallelMetricsTest, PageRankBitIdentical) {
  // Includes isolated vertices so the dangling-mass path is exercised.
  Rng rng(19);
  const Graph g = ErdosRenyi(3000, 0.002, &rng);
  const std::vector<double> oracle = PushPageRank(g, {});
  const std::vector<double> seq = PageRank(g);
  ASSERT_EQ(seq.size(), oracle.size());
  for (size_t v = 0; v < oracle.size(); ++v) {
    ASSERT_EQ(seq[v], oracle[v]) << "v " << v;
  }
  for (const uint32_t width : kWidths) {
    const std::vector<double> par = PageRankParallel(g, {}, {width, 0});
    ASSERT_EQ(par.size(), oracle.size());
    for (size_t v = 0; v < oracle.size(); ++v) {
      ASSERT_EQ(par[v], oracle[v]) << "v " << v << " width " << width;
    }
  }
}

// ------------------------------------------------- layout / raster --

TEST(ParallelLayoutTest, SpringLayoutBitIdenticalAcrossWidths) {
  Rng rng(23);
  const Graph g = BarabasiAlbert(600, 3, &rng);
  SpringLayoutOptions options;
  options.iterations = 30;
  const Positions seq = SpringLayout(g, options);
  for (const uint32_t width : kWidths) {
    options.num_threads = width;
    const Positions par = SpringLayout(g, options);
    ASSERT_EQ(par.size(), seq.size());
    for (size_t v = 0; v < seq.size(); ++v) {
      ASSERT_EQ(par[v].x, seq[v].x) << "v " << v << " width " << width;
      ASSERT_EQ(par[v].y, seq[v].y) << "v " << v << " width " << width;
    }
  }
}

TEST(ParallelRasterTest, HeightFieldBitIdenticalAcrossWidths) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(1024, 4, &rng);
  const VertexScalarField field("f", DistinctField(1024, 3));
  const SuperTree tree(BuildVertexScalarTree(g, field));
  const TerrainLayout layout = BuildTerrainLayout(tree);
  RasterOptions options;
  options.width = 193;   // odd sizes: ragged row bands
  options.height = 117;
  const HeightField seq = RasterizeTerrain(layout, options);
  for (const uint32_t width : kWidths) {
    options.num_threads = width;
    const HeightField par = RasterizeTerrain(layout, options);
    EXPECT_EQ(par.height_at, seq.height_at) << "width " << width;
    EXPECT_EQ(par.node_at, seq.node_at) << "width " << width;
    EXPECT_EQ(par.sea_level, seq.sea_level);
  }
}

}  // namespace
}  // namespace graphscape
