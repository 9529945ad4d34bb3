// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Field-vs-field comparison: Pearson/Spearman against hand-computed
// values (including tie handling), the LCI/GCI neighborhood conventions,
// the outlier field's sign contract, the average-rank transform, and
// top-peak Jaccard overlap against a per-element mask oracle.

#include "scalar/correlation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "metrics/kcore.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

Graph Star(uint32_t leaves) {
  GraphBuilder builder(leaves + 1);
  for (uint32_t v = 1; v <= leaves; ++v) builder.AddEdge(0, v);
  return builder.Build();
}

TEST(CorrelationTest, PearsonMatchesHandComputation) {
  // Exact linear relations hit ±1; an affine shift changes nothing.
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up{10.0, 30.0, 50.0, 70.0};
  const std::vector<double> down{8.0, 6.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, up), 1.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, down), -1.0);

  // Hand-computed non-trivial case: x = {1,2,3}, y = {1,3,2}:
  // cov = 1, var_x = 2, var_y = 2 -> r = 0.5.
  EXPECT_DOUBLE_EQ(
      PearsonCorrelation({1.0, 2.0, 3.0}, {1.0, 3.0, 2.0}), 0.5);
}

TEST(CorrelationTest, DegenerateWindowsAreNeutral) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1.0, 2.0}, {3.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(
      PearsonCorrelation({5.0, 5.0, 5.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(SpearmanCorrelation({1.0, 2.0}, {3.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({}, {}), 0.0);
}

TEST(CorrelationTest, SpearmanSeesMonotoneThroughNonlinearity) {
  // Exponential growth is far from linear but perfectly rank-correlated.
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y{1.0, 10.0, 100.0, 1000.0, 10000.0};
  EXPECT_LT(PearsonCorrelation(x, y), 0.95);
  EXPECT_DOUBLE_EQ(SpearmanCorrelation(x, y), 1.0);
  // Ties get average ranks: x = {1,1,2}, y = {2,2,7} agree exactly.
  EXPECT_DOUBLE_EQ(
      SpearmanCorrelation({1.0, 1.0, 2.0}, {2.0, 2.0, 7.0}), 1.0);
}

TEST(CorrelationTest, LciFollowsNeighborhoodConventions) {
  // Star: the center's closed neighborhood is the whole graph; each
  // spoke's window has only 2 points -> neutral 0.
  const Graph g = Star(4);
  const VertexScalarField a("a", {0.0, 1.0, 2.0, 3.0, 4.0});
  const VertexScalarField b("b", {0.0, 10.0, 30.0, 50.0, 70.0});
  const std::vector<double> lci = LocalCorrelationIndices(g, a, b);
  ASSERT_EQ(lci.size(), 5u);
  EXPECT_DOUBLE_EQ(lci[0], PearsonCorrelation(a.Values(), b.Values()));
  for (VertexId v = 1; v <= 4; ++v) EXPECT_DOUBLE_EQ(lci[v], 0.0);

  // GCI is the mean LCI, and the outlier field is its negation.
  double mean = 0.0;
  for (const double v : lci) mean += v;
  mean /= lci.size();
  EXPECT_DOUBLE_EQ(Gci(g, a, b), mean);
  const VertexScalarField outlier = OutlierScoreField(g, a, b);
  for (VertexId v = 0; v < 5; ++v)
    EXPECT_DOUBLE_EQ(outlier[v], -lci[v]);
}

TEST(CorrelationTest, BridgeBetweenCliquesIsTheLciOutlier) {
  // Two 5-cliques joined through a low-degree bridge vertex: degree and
  // a clique-indicator field agree inside the cliques but disagree at
  // the bridge, so the bridge carries the lowest LCI — the paper's
  // outlier-terrain story in miniature.
  GraphBuilder builder(11);
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) builder.AddEdge(u, v);
  for (VertexId u = 5; u < 10; ++u)
    for (VertexId v = u + 1; v < 10; ++v) builder.AddEdge(u, v);
  builder.AddEdge(4, 10);
  builder.AddEdge(10, 5);
  const Graph g = builder.Build();

  std::vector<double> degree(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) degree[v] = g.Degree(v);
  // High inside cliques, highest at the bridge: anti-correlated with
  // degree only around the bridge.
  std::vector<double> betweenness_proxy(g.NumVertices(), 1.0);
  betweenness_proxy[10] = 10.0;
  betweenness_proxy[4] = 5.0;
  betweenness_proxy[5] = 5.0;

  const VertexScalarField da("deg", degree);
  const VertexScalarField bb("btw", betweenness_proxy);
  const std::vector<double> lci = LocalCorrelationIndices(g, da, bb);
  uint32_t argmin = 0;
  for (VertexId v = 1; v < g.NumVertices(); ++v)
    if (lci[v] < lci[argmin]) argmin = v;
  EXPECT_EQ(argmin, 10u);
  EXPECT_LT(lci[10], 0.0);
}

TEST(CorrelationTest, GciOnMatchingStructuralFieldsIsStronglyPositive) {
  CollaborationOptions options;
  options.num_vertices = 400;
  options.num_planted_cores = 2;
  options.planted_core_size = 10;
  Rng rng(7);
  const Graph g = CollaborationNetwork(options, &rng);
  std::vector<double> degree(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) degree[v] = g.Degree(v);
  const VertexScalarField deg_field("degree", degree);
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(g));
  const double gci = Gci(g, deg_field, kc);
  EXPECT_GT(gci, 0.3);  // degree and coreness rank neighborhoods alike
  EXPECT_LE(gci, 1.0);
}

TEST(CorrelationTest, TopPeakJaccardBoundsAndIdentity) {
  Rng rng(3);
  const Graph g = BarabasiAlbert(300, 3, &rng);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = static_cast<double>(rng.UniformInt(10));
  const VertexScalarField field("f", values);
  const SuperTree tree(BuildVertexScalarTree(g, field));
  EXPECT_DOUBLE_EQ(TopPeakJaccard(tree, tree, 5), 1.0);

  // Disjoint peak sets: shift which vertices peak.
  std::vector<double> shifted(values);
  for (VertexId v = 0; v < g.NumVertices(); ++v)
    shifted[v] = 9.0 - shifted[v];
  const SuperTree flipped(
      BuildVertexScalarTree(g, VertexScalarField("g", shifted)));
  const double j = TopPeakJaccard(tree, flipped, 3);
  EXPECT_GE(j, 0.0);
  EXPECT_LE(j, 1.0);

  // Mixing element spaces (a vertex tree vs an edge tree) is refused in
  // every build type — the ids would index the wrong space.
  std::vector<double> edge_values(static_cast<size_t>(g.NumEdges()), 1.0);
  const SuperTree edge_tree(
      BuildEdgeScalarTree(g, EdgeScalarField("e", edge_values)));
  EXPECT_THROW(TopPeakJaccard(tree, edge_tree, 3), std::invalid_argument);
}

TEST(CorrelationTest, AverageRanksShareTieRunsAndTieSignedZeros) {
  // Ascending: {-0.0, +0.0} tie at ranks 0-1, then 1 at 2, then the two
  // 3s tie at ranks 3-4.
  EXPECT_EQ(AverageRanks({3.0, -0.0, 0.0, 3.0, 1.0}),
            (std::vector<double>{3.5, 0.5, 0.5, 3.5, 2.0}));
  EXPECT_TRUE(AverageRanks({}).empty());
  EXPECT_EQ(AverageRanks({-0.0, -0.0}), (std::vector<double>{0.5, 0.5}));
}

// Against the definition: rank(i) = #{j : v_j < v_i} plus half the other
// members of v_i's tie run, on negative, fractional, signed-zero and
// heavily tied values.
TEST(CorrelationTest, AverageRanksMatchTheCountingDefinition) {
  Rng rng(5);
  for (const uint32_t distinct : {1u, 4u, 64u, 5000u}) {
    std::vector<double> values(700);
    for (double& v : values) {
      const uint32_t draw = rng.UniformInt(distinct);
      v = draw == 0 ? (rng.UniformInt(2) == 0 ? 0.0 : -0.0)
                    : (static_cast<double>(draw) - distinct / 2.0) / 8.0;
    }
    const std::vector<double> ranks = AverageRanks(values);
    ASSERT_EQ(ranks.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      uint32_t less = 0, equal = 0;
      for (const double w : values) {
        less += static_cast<uint32_t>(w < values[i]);
        equal += static_cast<uint32_t>(w == values[i]);
      }
      EXPECT_EQ(ranks[i], 0.5 * (2.0 * less + equal - 1.0))
          << "distinct=" << distinct << " i=" << i;
    }
  }
}

TEST(CorrelationTest, SortedJaccardCountsOverlapOfSortedLists) {
  EXPECT_DOUBLE_EQ(SortedJaccard({1, 3, 5}, {3, 4, 5, 6}), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(SortedJaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(SortedJaccard({}, {7}), 0.0);
  EXPECT_DOUBLE_EQ(SortedJaccard({2, 9}, {2, 9}), 1.0);
}

// TopPeakJaccard against the definition: mark each tree's top-k peak
// members in a per-element mask and count |A ∩ B| and |A ∪ B|.
TEST(CorrelationTest, TopPeakJaccardMatchesMemberMaskOracle) {
  Rng rng(11);
  const Graph g = BarabasiAlbert(400, 3, &rng);
  const uint32_t n = g.NumVertices();
  std::vector<SuperTree> trees;
  for (uint32_t levels : {3u, 8u, 50u}) {
    std::vector<double> values(n);
    for (double& v : values) v = static_cast<double>(rng.UniformInt(levels));
    trees.emplace_back(
        BuildVertexScalarTree(g, VertexScalarField("f", std::move(values))));
  }
  for (const uint32_t k : {1u, 3u, 10u}) {
    std::vector<std::vector<char>> masks;
    for (const SuperTree& tree : trees) {
      std::vector<char> mask(n, 0);
      std::vector<uint32_t> expected;
      for (const Peak& peak : TopPeaks(tree, k)) {
        for (const uint32_t e : tree.Members(peak.super_node)) mask[e] = 1;
      }
      for (uint32_t e = 0; e < n; ++e) {
        if (mask[e]) expected.push_back(e);
      }
      EXPECT_EQ(TopPeakMembers(tree, k), expected);
      masks.push_back(std::move(mask));
    }
    for (size_t a = 0; a < trees.size(); ++a) {
      for (size_t b = 0; b < trees.size(); ++b) {
        uint32_t both = 0, either = 0;
        for (uint32_t e = 0; e < n; ++e) {
          both += static_cast<uint32_t>(masks[a][e] && masks[b][e]);
          either += static_cast<uint32_t>(masks[a][e] || masks[b][e]);
        }
        const double expected =
            either == 0 ? 1.0 : static_cast<double>(both) / either;
        EXPECT_EQ(TopPeakJaccard(trees[a], trees[b], k), expected)
            << "k=" << k << " pair " << a << "," << b;
      }
    }
  }
}

}  // namespace
}  // namespace graphscape
