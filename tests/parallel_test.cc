// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The determinism contract of the parallel construction engine
// (docs/PARALLELISM.md), pinned:
//
//  * pool primitives — every index visited exactly once, lane ids dense,
//    fixed-order reduction;
//  * parallel tree builds — byte-identical TreeArtifact serialization vs
//    the sequential builds for thread counts {1, 2, 4, 7} on the oracle
//    graph families, including adversarial chunkings (ties pinned at
//    chunk edges, single-chunk, more requested chunks than elements);
//  * parallel metrics / layout / raster — exactly equal to their
//    sequential counterparts for every width.
//
// Everything here runs under the CI TSan leg with GRAPHSCAPE_THREADS=4,
// which is what actually exercises the pool's publication/completion
// protocol under instrumentation.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "community/bigclam.h"
#include "community/roles.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "layout/spring_layout.h"
#include "query/nn_graph.h"
#include "query/table.h"
#include "metrics/clustering.h"
#include "metrics/ktruss.h"
#include "metrics/pagerank.h"
#include "metrics/triangles.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "scalar/tree_core.h"
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

TEST(ParallelReduceTest, SumMatchesSequentialForEveryWidth) {
  constexpr uint64_t kCount = 4999;
  uint64_t expected = 0;
  for (uint64_t i = 0; i < kCount; ++i) expected += i * i;
  for (const uint32_t width : kWidths) {
    const uint64_t got = ParallelReduce<uint64_t>(
        0, kCount, {width, 128}, 0,
        [](uint64_t i, uint64_t* acc) { *acc += i * i; },
        [](uint64_t total, uint64_t partial) { return total + partial; });
    EXPECT_EQ(got, expected) << "width " << width;
  }
}

TEST(EffectiveLanesTest, ClampsToBlocksAndCeiling) {
  EXPECT_EQ(EffectiveLanes({1, 1}, 100), 1u);
  EXPECT_EQ(EffectiveLanes({8, 1}, 3), 3u);   // never more lanes than blocks
  EXPECT_EQ(EffectiveLanes({8, 1}, 0), 0u);   // empty range: no lanes
  EXPECT_LE(EffectiveLanes({0, 1}, 1u << 20), kMaxThreads);
}

TEST(MakeSweepChunksTest, BoundsAreMonotoneAndClamped) {
  const std::vector<uint64_t> one = tree_core::MakeSweepChunks(10, 4, 100);
  ASSERT_EQ(one.size(), 2u);  // min_chunk caps the count at 1
  EXPECT_EQ(one.front(), 0u);
  EXPECT_EQ(one.back(), 10u);
  // More requested chunks than elements: clamped to n single-element
  // chunks, never an empty-range crash.
  const std::vector<uint64_t> tiny = tree_core::MakeSweepChunks(3, 7, 1);
  ASSERT_EQ(tiny.size(), 4u);
  for (size_t i = 0; i + 1 < tiny.size(); ++i) EXPECT_LE(tiny[i], tiny[i + 1]);
  const std::vector<uint64_t> empty = tree_core::MakeSweepChunks(0, 7, 1);
  ASSERT_EQ(empty.size(), 2u);
  EXPECT_EQ(empty.back(), 0u);
}

// ------------------------------------------------- oracle graph families --

Graph Path(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

Graph Star(uint32_t leaves) {
  GraphBuilder builder(leaves + 1);
  for (uint32_t v = 1; v <= leaves; ++v) builder.AddEdge(0, v);
  return builder.Build();
}

Graph Collab(uint32_t n) {
  CollaborationOptions opts;
  opts.num_vertices = n;
  opts.num_planted_cores = 2;
  opts.planted_core_size = 12;
  Rng rng(11);
  return CollaborationNetwork(opts, &rng);
}

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

// Asserts BuildVertexScalarTreeParallel == BuildVertexScalarTree at the
// TreeArtifact byte level for all pinned widths, plus raw parent/order/
// root equality (sharper failure messages than a byte diff).
void ExpectVertexTreeIdentical(const Graph& g,
                               const std::vector<double>& values,
                               uint64_t grain) {
  const VertexScalarField field("f", values);
  const ScalarTree seq = BuildVertexScalarTree(g, field);
  const std::string seq_bytes = ArtifactBytes(seq, "f", values);
  for (const uint32_t width : kWidths) {
    const ScalarTree par =
        BuildVertexScalarTreeParallel(g, field, {width, grain});
    EXPECT_EQ(par.Parents(), seq.Parents()) << "width " << width;
    EXPECT_EQ(par.SweepOrder(), seq.SweepOrder()) << "width " << width;
    EXPECT_EQ(par.NumRoots(), seq.NumRoots()) << "width " << width;
    EXPECT_EQ(ArtifactBytes(par, "f", values), seq_bytes)
        << "width " << width << " grain " << grain;
  }
}

void ExpectEdgeTreeIdentical(const Graph& g,
                             const std::vector<double>& values,
                             uint64_t grain) {
  const EdgeScalarField field("f", values);
  const ScalarTree seq = BuildEdgeScalarTree(g, field);
  const std::string seq_bytes = ArtifactBytes(seq, "f", values);
  for (const uint32_t width : kWidths) {
    const ScalarTree par =
        BuildEdgeScalarTreeParallel(g, field, {width, grain});
    EXPECT_EQ(par.Parents(), seq.Parents()) << "width " << width;
    EXPECT_EQ(par.SweepOrder(), seq.SweepOrder()) << "width " << width;
    EXPECT_EQ(par.NumRoots(), seq.NumRoots()) << "width " << width;
    EXPECT_EQ(ArtifactBytes(par, "f", values), seq_bytes)
        << "width " << width << " grain " << grain;
  }
}

// ------------------------------------ vertex tree thread-sweep identity --

TEST(ParallelVertexTreeTest, PathFamilies) {
  const Graph g = Path(257);
  // Two-peak profile: merges happen at a saddle mid-path.
  std::vector<double> two_peak(257);
  for (uint32_t v = 0; v < 257; ++v) {
    const double a = 100.0 - std::abs(60.0 - static_cast<double>(v));
    const double b = 95.0 - std::abs(190.0 - static_cast<double>(v));
    two_peak[v] = a > b ? a : b;
  }
  ExpectVertexTreeIdentical(g, two_peak, 16);
  ExpectVertexTreeIdentical(g, DistinctField(257, 5), 16);
}

TEST(ParallelVertexTreeTest, StarFamilies) {
  const Graph g = Star(64);
  ExpectVertexTreeIdentical(g, DistinctField(65, 9), 8);
  ExpectVertexTreeIdentical(g, PlateauField(65, 3, 9), 8);
}

TEST(ParallelVertexTreeTest, BarabasiAlbertDistinctAndPlateau) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(4096, 4, &rng);
  ExpectVertexTreeIdentical(g, DistinctField(4096, 7), 0);  // default grain
  ExpectVertexTreeIdentical(g, DistinctField(4096, 7), 256);
  // Integer plateau field — the K-Core-like shape with massive ties.
  ExpectVertexTreeIdentical(g, PlateauField(4096, 5, 13), 256);
}

TEST(ParallelVertexTreeTest, ErdosRenyiWithIsolatedVertices) {
  Rng rng(3);
  // Sparse: multiple components and isolated vertices (several roots).
  const Graph g = ErdosRenyi(2048, 0.0008, &rng);
  ExpectVertexTreeIdentical(g, DistinctField(2048, 21), 128);
}

TEST(ParallelVertexTreeTest, CollaborationNetwork) {
  const Graph g = Collab(2000);
  ExpectVertexTreeIdentical(g, DistinctField(g.NumVertices(), 17), 200);
  ExpectVertexTreeIdentical(g, PlateauField(g.NumVertices(), 4, 17), 200);
}

// ------------------------------------------- adversarial chunk shapes --

TEST(ParallelVertexTreeTest, AdversarialChunkBoundaries) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(331, 3, &rng);  // prime vertex count
  // Constant field: EVERY boundary is a tie boundary; the rank order is
  // pure id order and plateaus span every chunk edge.
  ExpectVertexTreeIdentical(g, std::vector<double>(331, 1.0), 1);
  // Two-value field with grain 1: maximal chunk count, ties everywhere.
  ExpectVertexTreeIdentical(g, PlateauField(331, 2, 29), 1);
  // grain 3 on a prime-sized graph: ragged last chunk.
  ExpectVertexTreeIdentical(g, DistinctField(331, 31), 3);
}

TEST(ParallelVertexTreeTest, DegenerateSizes) {
  // Empty graph.
  ExpectVertexTreeIdentical(GraphBuilder(0).Build(), {}, 1);
  // Single vertex (no edges).
  ExpectVertexTreeIdentical(GraphBuilder(1).Build(), {0.5}, 1);
  // Fewer elements than any requested width: 7 threads, 3 vertices.
  ExpectVertexTreeIdentical(Path(3), {1.0, 3.0, 2.0}, 1);
}

TEST(ParallelVertexTreeTest, SingleChunkDegradesToSequentialSweep) {
  // min_chunk far above n forces exactly one chunk for every width.
  Rng rng(42);
  const Graph g = BarabasiAlbert(512, 4, &rng);
  ExpectVertexTreeIdentical(g, DistinctField(512, 41), 1u << 20);
}

// -------------------------------------- edge tree thread-sweep identity --

TEST(ParallelEdgeTreeTest, OracleFamilies) {
  {
    const Graph g = Path(129);
    ExpectEdgeTreeIdentical(g, DistinctField(g.NumEdges(), 5), 16);
    // Constant field: the whole sweep is one plateau chain.
    ExpectEdgeTreeIdentical(g, std::vector<double>(g.NumEdges(), 2.0), 1);
  }
  {
    Rng rng(1);
    const Graph g = BarabasiAlbert(2048, 4, &rng);
    ExpectEdgeTreeIdentical(g, DistinctField(g.NumEdges(), 2), 0);
    ExpectEdgeTreeIdentical(g, PlateauField(g.NumEdges(), 6, 2), 64);
  }
}

TEST(ParallelEdgeTreeTest, TrussnessFieldOnCollaborationGraph) {
  const Graph g = Collab(1200);
  const EdgeScalarField field = TrussnessEdgeField(g);
  ExpectEdgeTreeIdentical(g, field.Values(), 128);
}

// ------------------------------------------------------ parallel metrics --

TEST(ParallelMetricsTest, TriangleCountsMatchExactly) {
  const Graph g = Collab(3000);
  const uint64_t seq_total = CountTriangles(g);
  const std::vector<uint32_t> seq_counts = VertexTriangleCounts(g);
  ASSERT_GT(seq_total, 0u);
  for (const uint32_t width : kWidths) {
    EXPECT_EQ(CountTrianglesParallel(g, {width, 0}), seq_total)
        << "width " << width;
    EXPECT_EQ(VertexTriangleCountsParallel(g, {width, 0}), seq_counts)
        << "width " << width;
    // Tiny grain: many more blocks than lanes, ragged boundaries.
    EXPECT_EQ(VertexTriangleCountsParallel(g, {width, 7}), seq_counts)
        << "width " << width;
  }
}

TEST(ParallelMetricsTest, ClusteringBitIdentical) {
  const Graph g = Collab(2000);
  const std::vector<double> seq_cc = LocalClusteringCoefficients(g);
  const double seq_avg = AverageClusteringCoefficient(g);
  for (const uint32_t width : kWidths) {
    EXPECT_EQ(LocalClusteringCoefficientsParallel(g, {width, 0}), seq_cc)
        << "width " << width;
    EXPECT_EQ(AverageClusteringCoefficientParallel(g, {width, 0}), seq_avg)
        << "width " << width;
  }
}

TEST(ParallelMetricsTest, PageRankBitIdentical) {
  // Includes isolated vertices so the dangling-mass path is exercised.
  Rng rng(19);
  const Graph g = ErdosRenyi(3000, 0.002, &rng);
  const std::vector<double> seq = PageRank(g);
  for (const uint32_t width : kWidths) {
    const std::vector<double> par = PageRankParallel(g, {}, {width, 0});
    ASSERT_EQ(par.size(), seq.size());
    for (size_t v = 0; v < seq.size(); ++v) {
      ASSERT_EQ(par[v], seq[v]) << "v " << v << " width " << width;
    }
  }
}

TEST(ParallelMetricsTest, TrussNumbersMatchExactly) {
  const Graph g = Collab(1500);
  const std::vector<uint32_t> seq = TrussNumbers(g);
  for (const uint32_t width : kWidths) {
    EXPECT_EQ(TrussNumbersParallel(g, {width, 0}), seq) << "width " << width;
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

// --------------------------------------- community / query thread sweep --

TEST(ParallelCommunityTest, BigClamFitBitIdenticalAcrossWidths) {
  OverlappingCommunityOptions gen;
  gen.num_communities = 3;
  gen.vertices_per_community = 120;
  Rng rng(77);
  const CommunityGraphResult planted = OverlappingCommunities(gen, &rng);
  BigClamOptions options;
  options.num_communities = 3;
  options.iterations = 25;
  options.num_threads = 1;
  const BigClamAffiliations seq = BigClamFit(planted.graph, options);
  for (const uint32_t width : kWidths) {
    options.num_threads = width;
    const BigClamAffiliations par = BigClamFit(planted.graph, options);
    ASSERT_EQ(par.factors.size(), seq.factors.size());
    for (size_t i = 0; i < seq.factors.size(); ++i) {
      ASSERT_EQ(par.factors[i], seq.factors[i])
          << "entry " << i << " width " << width;
    }
  }
}

TEST(ParallelCommunityTest, RecursiveFeaturesBitIdenticalAcrossWidths) {
  const Graph g = Collab(1500);
  RoleFeatureOptions options;
  options.depth = 2;
  options.num_threads = 1;
  const RoleFeatureMatrix seq = RecursiveFeatures(g, options);
  for (const uint32_t width : kWidths) {
    options.num_threads = width;
    const RoleFeatureMatrix par = RecursiveFeatures(g, options);
    ASSERT_EQ(par.num_features, seq.num_features);
    for (size_t i = 0; i < seq.values.size(); ++i) {
      ASSERT_EQ(par.values[i], seq.values[i])
          << "entry " << i << " width " << width;
    }
  }
}

TEST(ParallelQueryTest, NnGraphIdenticalAcrossWidths) {
  Rng rng(31);
  Table table = MakePlantGenusTable(700, &rng);
  NnGraphOptions options;
  options.max_neighbors = 6;
  options.num_threads = 1;
  const Graph seq = BuildNnGraph(table, options);
  for (const uint32_t width : kWidths) {
    options.num_threads = width;
    const Graph par = BuildNnGraph(table, options);
    ASSERT_EQ(par.Adjacency(), seq.Adjacency()) << "width " << width;
    ASSERT_EQ(par.Offsets(), seq.Offsets()) << "width " << width;
  }
}

// Randomized cross-check: many independent (graph, field, grain, width)
// draws through the full vertex path. Seeds are fixed, so failures
// reproduce; this is the chunked sweep's fuzz net under ASan/TSan.
TEST(ParallelVertexTreeTest, RandomizedStress) {
  Rng meta(777);
  for (uint32_t trial = 0; trial < 12; ++trial) {
    const uint32_t n = 64 + meta.UniformInt(1024);
    Rng graph_rng(1000 + trial);
    const Graph g = trial % 2 == 0
                        ? BarabasiAlbert(n, 2 + trial % 3, &graph_rng)
                        : ErdosRenyi(n, 0.01, &graph_rng);
    const uint32_t levels = 1 + meta.UniformInt(8);
    const std::vector<double> values =
        levels == 1 ? DistinctField(n, 2000 + trial)
                    : PlateauField(n, levels, 2000 + trial);
    const uint64_t grain = 1 + meta.UniformInt(64);
    const VertexScalarField field("f", values);
    const ScalarTree seq = BuildVertexScalarTree(g, field);
    const uint32_t width = kWidths[meta.UniformInt(4)];
    const ScalarTree par =
        BuildVertexScalarTreeParallel(g, field, {width, grain});
    ASSERT_EQ(par.Parents(), seq.Parents())
        << "trial " << trial << " n " << n << " width " << width << " grain "
        << grain;
    ASSERT_EQ(par.NumRoots(), seq.NumRoots()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace graphscape
