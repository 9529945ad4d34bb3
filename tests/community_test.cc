// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Oracle-grade coverage for the community subsystem: the planted
// overlapping-community generator's structural guarantees, BigCLAM-lite
// recovery scored against the planted partition (best-match Jaccard),
// and the role classifier checked on hand-computable graphs (star, path,
// clique) plus the planted role community.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "community/bigclam.h"
#include "community/roles.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "scalar/tree_io.h"
#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

CommunityGraphResult SmallCommunities(uint64_t seed = 2017) {
  OverlappingCommunityOptions options;
  options.num_communities = 4;
  options.vertices_per_community = 150;
  options.subclusters = 2;
  Rng rng(seed);
  return OverlappingCommunities(options, &rng);
}

TEST(OverlappingCommunitiesTest, ShapeMatchesOptions) {
  const CommunityGraphResult result = SmallCommunities();
  const uint32_t n = result.graph.NumVertices();
  EXPECT_EQ(n, 600u);
  ASSERT_EQ(result.scores.size(), 4u);
  for (const auto& scores : result.scores) EXPECT_EQ(scores.size(), n);
  ASSERT_EQ(result.primary_community.size(), n);
  ASSERT_EQ(result.subcluster.size(), n);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(result.primary_community[v], v / 150) << v;
    EXPECT_GT(result.scores[result.primary_community[v]][v], 0.0) << v;
  }
}

TEST(OverlappingCommunitiesTest, ScoresRespectDocumentedBands) {
  const CommunityGraphResult result = SmallCommunities();
  const uint32_t n = result.graph.NumVertices();
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t home = result.primary_community[v];
    const double primary = result.scores[home][v];
    EXPECT_GT(primary, 0.0);
    EXPECT_LE(primary, 1.0);
    if (result.subcluster[v] != kInvalidVertex) {
      EXPECT_GE(primary, kCommunityCoreScore)
          << "core member below the core band at vertex " << v;
    } else {
      EXPECT_LE(primary, kCommunityBridgeScore)
          << "mid-band member above the bridge level at vertex " << v;
    }
    for (uint32_t c = 0; c < 4; ++c) {
      if (c == home) continue;
      EXPECT_LT(result.scores[c][v], 0.5)
          << "overlap affiliation must stay below 0.5 at vertex " << v;
    }
  }
}

TEST(OverlappingCommunitiesTest, EachCommunityShowsTwinCorePeaks) {
  const CommunityGraphResult result = SmallCommunities();
  for (uint32_t c = 0; c < 4; ++c) {
    const VertexScalarField field("score", result.scores[c]);
    const SuperTree tree(BuildVertexScalarTree(result.graph, field));
    EXPECT_EQ(PeaksAtLevel(tree, kCommunityCoreScore).size(), 2u)
        << "community " << c
        << ": sub-cores must be disconnected at the core level";
    // Below the bridge level the two sub-cores merge into one peak.
    EXPECT_EQ(CountComponentsAtLevel(tree, kCommunityBridgeScore - 0.02), 1u)
        << "community " << c;
  }
}

TEST(OverlappingCommunitiesTest, MaxScoreFieldHasOnePeakPerCommunity) {
  const CommunityGraphResult result = SmallCommunities();
  const uint32_t n = result.graph.NumVertices();
  std::vector<double> best(n, 0.0);
  for (uint32_t c = 0; c < 4; ++c)
    for (VertexId v = 0; v < n; ++v)
      best[v] = std::max(best[v], result.scores[c][v]);
  const VertexScalarField field("max_score", best);
  const SuperTree tree(BuildVertexScalarTree(result.graph, field));
  EXPECT_EQ(CountComponentsAtLevel(tree, 0.5), 4u);
}

TEST(OverlappingCommunitiesTest, DeterministicInSeed) {
  const CommunityGraphResult a = SmallCommunities(7);
  const CommunityGraphResult b = SmallCommunities(7);
  const CommunityGraphResult c = SmallCommunities(8);
  EXPECT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  EXPECT_EQ(a.graph.Adjacency(), b.graph.Adjacency());
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_NE(a.scores, c.scores);
}

// ------------------------------------------------------------- BigCLAM --

/// Best-match Jaccard between the fitted community (normalized score >
/// 0.3) and each planted member set (score > 0.2) — the partition
/// recovery oracle.
double MeanBestJaccard(const CommunityGraphResult& planted,
                       const BigClamAffiliations& fitted) {
  const uint32_t n = planted.graph.NumVertices();
  double total = 0.0;
  for (uint32_t p = 0; p < planted.scores.size(); ++p) {
    double best = 0.0;
    for (uint32_t f = 0; f < fitted.num_communities; ++f) {
      const VertexScalarField fit = CommunityScoreField(fitted, f);
      uint32_t both = 0, either = 0;
      for (VertexId v = 0; v < n; ++v) {
        const bool in_planted = planted.scores[p][v] > 0.2;
        const bool in_fitted = fit[v] > 0.3;
        both += in_planted && in_fitted;
        either += in_planted || in_fitted;
      }
      if (either > 0)
        best = std::max(best, static_cast<double>(both) / either);
    }
    total += best;
  }
  return total / planted.scores.size();
}

TEST(BigClamTest, RecoversPlantedPartition) {
  const CommunityGraphResult planted = SmallCommunities();
  BigClamOptions options;
  options.num_communities = 4;
  options.iterations = 80;
  const BigClamAffiliations fitted = BigClamFit(planted.graph, options);
  EXPECT_GE(MeanBestJaccard(planted, fitted), 0.6)
      << "fit lost the planted 4-community structure";
}

TEST(BigClamTest, FactorsArePinned) {
  // The fig 8 fit, byte for byte: FNV-1a over the raw factor doubles.
  OverlappingCommunityOptions gen;
  gen.num_communities = 4;
  gen.vertices_per_community = 300;
  gen.subclusters = 2;
  Rng rng(2017);
  const CommunityGraphResult dblp = OverlappingCommunities(gen, &rng);
  BigClamOptions options;
  options.num_communities = 4;
  options.iterations = 80;
  const BigClamAffiliations fitted = BigClamFit(dblp.graph, options);
  const std::string bytes(
      reinterpret_cast<const char*>(fitted.factors.data()),
      fitted.factors.size() * sizeof(double));
  EXPECT_EQ(Fnv1aChecksum(bytes), 0x157f4174adb16d04ull);
}

TEST(BigClamTest, FitIsDeterministic) {
  const CommunityGraphResult planted = SmallCommunities();
  BigClamOptions options;
  options.iterations = 20;
  const BigClamAffiliations a = BigClamFit(planted.graph, options);
  const BigClamAffiliations b = BigClamFit(planted.graph, options);
  EXPECT_EQ(a.factors, b.factors) << "same inputs must refit identically";
  options.seed = 15;
  const BigClamAffiliations c = BigClamFit(planted.graph, options);
  EXPECT_NE(a.factors, c.factors) << "the seed must reach the jitter";
}

TEST(BigClamTest, FactorsStayInsideTheBox) {
  const CommunityGraphResult planted = SmallCommunities();
  BigClamOptions options;
  options.iterations = 40;
  options.max_factor = 2.0;
  const BigClamAffiliations fitted = BigClamFit(planted.graph, options);
  ASSERT_EQ(fitted.factors.size(),
            static_cast<size_t>(fitted.num_vertices) *
                fitted.num_communities);
  for (const double f : fitted.factors) {
    EXPECT_TRUE(std::isfinite(f));
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 2.0);
  }
}

TEST(BigClamTest, IsolatedVerticesDecayToZero) {
  // Two vertices, no edges: the only force is the lambda pull, so a
  // long-enough budget drains every factor to exactly 0 (clamped).
  const Graph g = GraphBuilder(2).Build();
  BigClamOptions options;
  options.num_communities = 3;
  options.iterations = 500;
  const BigClamAffiliations fitted = BigClamFit(g, options);
  for (const double f : fitted.factors) EXPECT_EQ(f, 0.0);
}

TEST(BigClamTest, EmptyGraphYieldsEmptyFit) {
  const Graph g = GraphBuilder(0).Build();
  const BigClamAffiliations fitted = BigClamFit(g);
  EXPECT_EQ(fitted.num_vertices, 0u);
  EXPECT_TRUE(fitted.factors.empty());
}

TEST(BigClamTest, ScoreFieldsAreNormalizedAndNamed) {
  const CommunityGraphResult planted = SmallCommunities();
  BigClamOptions options;
  options.iterations = 30;
  const BigClamAffiliations fitted = BigClamFit(planted.graph, options);
  for (uint32_t c = 0; c < fitted.num_communities; ++c) {
    const VertexScalarField field = CommunityScoreField(fitted, c);
    EXPECT_EQ(field.Name(), "bigclam" + std::to_string(c));
    EXPECT_EQ(field.Size(), planted.graph.NumVertices());
    EXPECT_DOUBLE_EQ(field.MaxValue(), 1.0);
    EXPECT_GE(field.MinValue(), 0.0);
  }
}

// ---------------------------------------------------------------- roles --

Graph StarGraph(uint32_t leaves) {
  GraphBuilder builder(leaves + 1);
  for (uint32_t leaf = 1; leaf <= leaves; ++leaf) builder.AddEdge(0, leaf);
  return builder.Build();
}

Graph PathGraph(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

Graph CliqueGraph(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t a = 0; a < n; ++a)
    for (uint32_t b = a + 1; b < n; ++b) builder.AddEdge(a, b);
  return builder.Build();
}

std::vector<VertexId> AllVertices(const Graph& g) {
  std::vector<VertexId> vertices(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) vertices[v] = v;
  return vertices;
}

TEST(ClassifyRolesTest, StarCenterIsHubLeavesAreWhiskers) {
  const Graph g = StarGraph(12);
  const std::vector<VertexRole> roles = ClassifyRoles(g, AllVertices(g));
  EXPECT_EQ(roles[0], VertexRole::kHub);
  for (VertexId leaf = 1; leaf < g.NumVertices(); ++leaf)
    EXPECT_EQ(roles[leaf], VertexRole::kWhisker) << leaf;
}

TEST(ClassifyRolesTest, PathIsAllWhisker) {
  const Graph g = PathGraph(8);
  for (const VertexRole role : ClassifyRoles(g, AllVertices(g)))
    EXPECT_EQ(role, VertexRole::kWhisker);
}

TEST(ClassifyRolesTest, CliqueIsAllDense) {
  const Graph g = CliqueGraph(6);
  for (const VertexRole role : ClassifyRoles(g, AllVertices(g)))
    EXPECT_EQ(role, VertexRole::kDense);
}

TEST(ClassifyRolesTest, OutsideCommunityIsBackground) {
  const Graph g = CliqueGraph(6);
  const std::vector<VertexRole> roles = ClassifyRoles(g, {0, 1, 2});
  for (VertexId v = 3; v < 6; ++v)
    EXPECT_EQ(roles[v], VertexRole::kBackground) << v;
  EXPECT_TRUE(ClassifyRoles(g, {}).size() == 6 &&
              ClassifyRoles(g, {})[0] == VertexRole::kBackground);
}

TEST(ClassifyRolesTest, RecoversPlantedRoleCommunity) {
  RoleCommunityOptions options;
  Rng rng(9);
  const RoleCommunityResult planted = RoleCommunityGraph(options, &rng);
  const std::vector<VertexRole> roles =
      ClassifyRoles(planted.graph, planted.community_vertices);
  EXPECT_GE(RoleAccuracy(roles, planted.roles), 0.9);
  // The terrain layering the figure claims: mean community score per
  // recovered role must strictly decrease hub -> dense -> periphery ->
  // whisker.
  double height[4] = {0, 0, 0, 0};
  uint32_t count[4] = {0, 0, 0, 0};
  for (const VertexId v : planted.community_vertices) {
    const auto r = static_cast<uint32_t>(roles[v]);
    ASSERT_LT(r, 4u);
    height[r] += planted.community_score[v];
    ++count[r];
  }
  for (int r = 0; r < 4; ++r) ASSERT_GT(count[r], 0u) << "role " << r;
  for (int r = 0; r + 1 < 4; ++r)
    EXPECT_GT(height[r] / count[r], height[r + 1] / count[r + 1])
        << "role " << r << " must sit above role " << r + 1;
}

TEST(RoleAccuracyTest, ScoresOnlyPlantedNonBackground) {
  using R = VertexRole;
  const std::vector<R> planted = {R::kHub, R::kDense, R::kBackground};
  EXPECT_DOUBLE_EQ(
      RoleAccuracy({R::kHub, R::kWhisker, R::kDense}, planted), 0.5);
  EXPECT_DOUBLE_EQ(RoleAccuracy({R::kHub, R::kDense, R::kHub}, planted), 1.0);
  EXPECT_DOUBLE_EQ(
      RoleAccuracy({R::kHub}, {R::kBackground}), 1.0);  // vacuous
}

TEST(RoleVocabularyTest, NamesAndColorsAreDistinct) {
  using R = VertexRole;
  const R all[] = {R::kHub, R::kDense, R::kPeriphery, R::kWhisker,
                   R::kBackground};
  std::set<std::string> names;
  std::set<std::tuple<int, int, int>> colors;
  for (const R role : all) {
    names.insert(RoleName(role));
    const Rgb rgb = RoleColor(role);
    colors.insert({rgb.r, rgb.g, rgb.b});
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(colors.size(), 5u);
  EXPECT_STREQ(RoleName(R::kHub), "hub");
  EXPECT_STREQ(RoleName(R::kWhisker), "whisker");
}

}  // namespace
}  // namespace graphscape
