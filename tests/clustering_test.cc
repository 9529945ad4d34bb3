// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/clustering.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
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

Graph Star(uint32_t leaves) {
  GraphBuilder builder(leaves + 1);
  for (uint32_t v = 1; v <= leaves; ++v) builder.AddEdge(0, v);
  return builder.Build();
}

// Transitivity, 3·(#triangles) / (#wedges), 0 without wedges. Not the
// same statistic as the average local coefficient: hub-heavy graphs
// score much lower here.
double Transitivity(const Graph& g) {
  uint64_t wedges = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t d = g.Degree(v);
    if (d >= 2) wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(CountTriangles(g)) /
         static_cast<double>(wedges);
}

// O(n * deg^2) oracle: for every vertex, count adjacent neighbor pairs
// directly with HasEdge. Same integer triangle count, same formula, so
// the kernels must agree bit-for-bit. `closed[v]` is that count: the
// triangles through v.
std::vector<double> BruteForceLocalClustering(const Graph& g,
                                              std::vector<uint64_t>* closed) {
  const uint32_t n = g.NumVertices();
  std::vector<double> cc(n, 0.0);
  closed->assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    const Graph::NeighborRange r = g.Neighbors(v);
    const uint32_t d = r.size();
    if (d < 2) continue;
    for (uint32_t i = 0; i < d; ++i)
      for (uint32_t j = i + 1; j < d; ++j)
        if (g.HasEdge(r[i], r[j])) ++(*closed)[v];
    cc[v] = 2.0 * static_cast<double>((*closed)[v]) /
            (static_cast<double>(d) * static_cast<double>(d - 1));
  }
  return cc;
}

TEST(ClusteringTest, CliqueIsFullyClustered) {
  const Graph g = Clique(6);
  for (const double c : LocalClusteringCoefficients(g)) {
    EXPECT_DOUBLE_EQ(c, 1.0);
  }
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(g), 1.0);
}

TEST(ClusteringTest, TriangleFreeGraphsScoreZero) {
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(Path(10)), 0.0);
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(Star(10)), 0.0);
}

TEST(ClusteringTest, LowDegreeVerticesReportZero) {
  // Triangle with a pendant: the pendant (degree 1) and an isolated
  // vertex both report 0 by convention; the attachment vertex has one
  // closed pair out of three.
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  builder.AddEdge(2, 3);
  const Graph g = builder.Build();
  const std::vector<double> cc = LocalClusteringCoefficients(g);
  EXPECT_DOUBLE_EQ(cc[0], 1.0);
  EXPECT_DOUBLE_EQ(cc[1], 1.0);
  EXPECT_DOUBLE_EQ(cc[2], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(cc[3], 0.0);
  EXPECT_DOUBLE_EQ(cc[4], 0.0);
}

TEST(ClusteringTest, EmptyGraphIsZero) {
  const Graph g = GraphBuilder(0).Build();
  EXPECT_TRUE(LocalClusteringCoefficients(g).empty());
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(g), 0.0);
}

TEST(ClusteringTest, MatchesBruteForceOracleOnRandomGraphs) {
  std::vector<Graph> graphs;
  for (const uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    graphs.push_back(ErdosRenyi(60, 0.15, &rng));
    graphs.push_back(BarabasiAlbert(60, 4, &rng));
  }
  // A triangle-rich graph with two planted cores.
  CollaborationOptions collab;
  collab.num_vertices = 3000;
  collab.num_planted_cores = 2;
  collab.planted_core_size = 12;
  Rng collab_rng(11);
  graphs.push_back(CollaborationNetwork(collab, &collab_rng));
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    std::vector<uint64_t> closed;
    const std::vector<double> expected = BruteForceLocalClustering(g, &closed);
    const std::vector<double> actual = LocalClusteringCoefficients(g);
    const std::vector<uint32_t> triangles = VertexTriangleCounts(g);
    ASSERT_EQ(actual.size(), expected.size());
    ASSERT_EQ(triangles.size(), closed.size());
    for (size_t v = 0; v < expected.size(); ++v) {
      EXPECT_DOUBLE_EQ(actual[v], expected[v])
          << "graph " << i << " vertex " << v;
      EXPECT_EQ(triangles[v], closed[v]) << "graph " << i << " vertex " << v;
    }
    const uint64_t sum =
        std::accumulate(closed.begin(), closed.end(), uint64_t{0});
    EXPECT_EQ(CountTriangles(g), sum / 3) << "graph " << i;
  }
  EXPECT_GT(CountTriangles(graphs.back()), 0u);
}

TEST(ClusteringTest, GlobalBelowAverageOnStarPlusTriangle) {
  // Transitivity weights hubs by their wedge count: a big open star drags
  // the global coefficient far below the average local one.
  GraphBuilder builder(12);
  for (uint32_t v = 1; v <= 8; ++v) builder.AddEdge(0, v);
  builder.AddEdge(9, 10);
  builder.AddEdge(10, 11);
  builder.AddEdge(9, 11);
  const Graph g = builder.Build();
  EXPECT_GT(AverageClusteringCoefficient(g), Transitivity(g));
}

}  // namespace
}  // namespace graphscape
