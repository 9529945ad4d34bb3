// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "graph/graph_builder.h"
#include "metrics/centrality.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "metrics/nucleus.h"
#include "metrics/pagerank.h"
#include "metrics/triangles.h"

namespace graphscape {
namespace {

Graph Clique(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t u = 0; u < n; ++u)
    for (uint32_t v = u + 1; v < n; ++v) builder.AddEdge(u, v);
  return builder.Build();
}

Graph Path(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

TEST(CoreNumbersTest, CliqueWithTail) {
  // K4 on {0..3}, tail 3-4-5: clique cores are 3, tail cores are 1.
  GraphBuilder builder(6);
  for (uint32_t u = 0; u < 4; ++u)
    for (uint32_t v = u + 1; v < 4; ++v) builder.AddEdge(u, v);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  const std::vector<uint32_t> core = CoreNumbers(builder.Build());
  EXPECT_EQ(core, (std::vector<uint32_t>{3, 3, 3, 3, 1, 1}));
}

TEST(CoreNumbersTest, StarIsOneCore) {
  GraphBuilder builder(5);
  for (uint32_t v = 1; v < 5; ++v) builder.AddEdge(0, v);
  const std::vector<uint32_t> core = CoreNumbers(builder.Build());
  EXPECT_EQ(core, (std::vector<uint32_t>{1, 1, 1, 1, 1}));
}

TEST(CoreNumbersTest, TwoCliquesBridged) {
  // Two K4s joined by one edge: the bridge cannot raise anyone's core.
  GraphBuilder builder(8);
  for (uint32_t base : {0u, 4u})
    for (uint32_t u = 0; u < 4; ++u)
      for (uint32_t v = u + 1; v < 4; ++v)
        builder.AddEdge(base + u, base + v);
  builder.AddEdge(3, 4);
  const std::vector<uint32_t> core = CoreNumbers(builder.Build());
  for (uint32_t v = 0; v < 8; ++v) EXPECT_EQ(core[v], 3u);
}

TEST(TrianglesTest, CountsMatchClosedForms) {
  EXPECT_EQ(CountTriangles(Clique(4)), 4u);
  EXPECT_EQ(CountTriangles(Clique(5)), 10u);
  EXPECT_EQ(CountTriangles(Path(10)), 0u);
}

TEST(TrianglesTest, PerVertexCountsOnClique) {
  // In K4 every vertex lies on C(3,2) = 3 triangles.
  const std::vector<uint32_t> counts = VertexTriangleCounts(Clique(4));
  EXPECT_EQ(counts, (std::vector<uint32_t>{3, 3, 3, 3}));
}

TEST(TrussNumbersTest, CliquesAndPendants) {
  // K4 is a 4-truss; a pendant edge hanging off it has no triangles.
  GraphBuilder builder(5);
  for (uint32_t u = 0; u < 4; ++u)
    for (uint32_t v = u + 1; v < 4; ++v) builder.AddEdge(u, v);
  builder.AddEdge(3, 4);
  const Graph g = builder.Build();
  const std::vector<uint32_t> truss = TrussNumbers(g);
  ASSERT_EQ(truss.size(), g.NumEdges());
  for (uint32_t e = 0; e < truss.size(); ++e) {
    const auto [u, v] = g.EdgeEndpoints(e);
    EXPECT_EQ(truss[e], v == 4 ? 2u : 4u) << "edge " << u << "-" << v;
  }
  const std::vector<uint32_t> k5 = TrussNumbers(Clique(5));
  for (const uint32_t t : k5) EXPECT_EQ(t, 5u);
}

TEST(PageRankTest, SumsToOneAndUniformOnCycle) {
  GraphBuilder builder(8);
  for (uint32_t v = 0; v < 8; ++v) builder.AddEdge(v, (v + 1) % 8);
  const std::vector<double> pr = PageRank(builder.Build());
  const double sum = std::accumulate(pr.begin(), pr.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (const double r : pr) EXPECT_NEAR(r, 1.0 / 8.0, 1e-9);
}

TEST(PageRankTest, HubOutranksLeaves) {
  GraphBuilder builder(6);
  for (uint32_t v = 1; v < 6; ++v) builder.AddEdge(0, v);
  const std::vector<double> pr = PageRank(builder.Build());
  for (uint32_t v = 1; v < 6; ++v) EXPECT_GT(pr[0], pr[v]);
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-9);
}

TEST(BetweennessTest, ExactOnPathMatchesPairCounts) {
  // On a path, betweenness(v) = (#vertices left of v) * (#right of v).
  BetweennessOptions options;
  options.num_samples = 100;  // >= n, so exact
  const std::vector<double> bc = BetweennessCentrality(Path(5), options);
  EXPECT_NEAR(bc[0], 0.0, 1e-9);
  EXPECT_NEAR(bc[1], 3.0, 1e-9);
  EXPECT_NEAR(bc[2], 4.0, 1e-9);
  EXPECT_NEAR(bc[3], 3.0, 1e-9);
  EXPECT_NEAR(bc[4], 0.0, 1e-9);
}

TEST(BetweennessTest, SampledEstimateIsFiniteAndNonNegative) {
  BetweennessOptions options;
  options.num_samples = 3;
  const std::vector<double> bc = BetweennessCentrality(Path(20), options);
  for (const double b : bc) EXPECT_GE(b, 0.0);
}

TEST(Nucleus34Test, CliqueTrianglesShareUniformSupport) {
  // K5: C(5,3) = 10 triangles, each completed to a 4-clique by 2 vertices.
  const NucleusDecomposition k5 = Nucleus34(Clique(5));
  ASSERT_EQ(k5.triangles.size(), 10u);
  for (const uint32_t s : k5.nucleus_numbers) EXPECT_EQ(s, 2u);

  const NucleusDecomposition k4 = Nucleus34(Clique(4));
  ASSERT_EQ(k4.triangles.size(), 4u);
  for (const uint32_t s : k4.nucleus_numbers) EXPECT_EQ(s, 1u);
}

TEST(Nucleus34Test, TriangleFreeGraphIsEmpty) {
  const NucleusDecomposition d = Nucleus34(Path(6));
  EXPECT_TRUE(d.triangles.empty());
  EXPECT_TRUE(d.nucleus_numbers.empty());
}

}  // namespace
}  // namespace graphscape
