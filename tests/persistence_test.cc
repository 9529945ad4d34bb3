// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Persistence pairs vs hand-computed oracles on path/star graphs, the
// structural invariants (one pair per leaf, one essential pair per
// component, non-negative persistence) on random graphs for vertex and
// edge trees, and the SimplifyByPersistence contract: tau = 0 is the
// identity, cancelled features vanish, survivors keep their pairs — the
// consistency pin against §II-E level quantization.

#include "scalar/persistence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "scalar/simplify.h"
#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

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

TEST(PersistenceTest, TwoPeakPathMatchesHandComputation) {
  // Peaks at v1 (5) and v3 (6) merge at the saddle v2 (2); the elder
  // peak v3 survives to the component minimum v0 (1).
  const Graph g = Path(5);
  const VertexScalarField field("f", {1.0, 5.0, 2.0, 6.0, 3.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  const auto pairs = PersistencePairs(tree);
  ASSERT_EQ(pairs.size(), 2u);

  EXPECT_TRUE(pairs[0].essential);
  EXPECT_EQ(pairs[0].birth_element, 3u);
  EXPECT_EQ(pairs[0].death_element, kInvalidVertex);
  EXPECT_DOUBLE_EQ(pairs[0].birth, 6.0);
  EXPECT_DOUBLE_EQ(pairs[0].death, 1.0);

  EXPECT_FALSE(pairs[1].essential);
  EXPECT_EQ(pairs[1].birth_element, 1u);
  EXPECT_EQ(pairs[1].death_element, 2u);
  EXPECT_DOUBLE_EQ(pairs[1].birth, 5.0);
  EXPECT_DOUBLE_EQ(pairs[1].death, 2.0);
  EXPECT_DOUBLE_EQ(pairs[1].Persistence(), 3.0);
}

TEST(PersistenceTest, LowCenterStarPairsEveryLeafAgainstTheHub) {
  // Every spoke is a local maximum; all merge at the hub (0). The
  // highest spoke v4 is essential; v3, v2, v1 die at the hub with
  // persistence 3, 2, 1 — sorted descending after the essential pair.
  const Graph g = Star(4);
  const VertexScalarField field("f", {0.0, 1.0, 2.0, 3.0, 4.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  const auto pairs = PersistencePairs(tree);
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_TRUE(pairs[0].essential);
  EXPECT_EQ(pairs[0].birth_element, 4u);
  EXPECT_DOUBLE_EQ(pairs[0].Persistence(), 4.0);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(pairs[i].essential);
    EXPECT_EQ(pairs[i].birth_element, 4u - i);
    EXPECT_EQ(pairs[i].death_element, 0u);
    EXPECT_DOUBLE_EQ(pairs[i].Persistence(), 4.0 - i);
  }
}

void ExpectPairInvariants(const ScalarTree& tree) {
  const auto pairs = PersistencePairs(tree);

  // One pair per leaf of the scalar tree.
  std::vector<char> has_child(tree.NumNodes(), 0);
  for (uint32_t v = 0; v < tree.NumNodes(); ++v) {
    if (tree.Parent(v) != kInvalidVertex) has_child[tree.Parent(v)] = 1;
  }
  uint32_t leaves = 0;
  for (const char c : has_child) leaves += !c;
  EXPECT_EQ(pairs.size(), leaves);

  uint32_t essential = 0;
  std::set<uint32_t> births;
  for (const auto& pair : pairs) {
    EXPECT_TRUE(births.insert(pair.birth_element).second)
        << "births must be distinct leaves";
    EXPECT_FALSE(has_child[pair.birth_element]);
    EXPECT_DOUBLE_EQ(pair.birth, tree.Value(pair.birth_element));
    EXPECT_GE(pair.Persistence(), 0.0);
    if (pair.essential) {
      ++essential;
      EXPECT_EQ(pair.death_element, kInvalidVertex);
    } else {
      EXPECT_DOUBLE_EQ(pair.death, tree.Value(pair.death_element));
    }
  }
  EXPECT_EQ(essential, tree.NumRoots());
}

TEST(PersistenceTest, InvariantsHoldOnRandomVertexAndEdgeTrees) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Graph g = BarabasiAlbert(300, 3, &rng);
    std::vector<double> vertex_values(g.NumVertices());
    for (auto& v : vertex_values)
      v = static_cast<double>(rng.UniformInt(9));
    ExpectPairInvariants(
        BuildVertexScalarTree(g, VertexScalarField("f", vertex_values)));

    const Graph er = ErdosRenyi(200, 0.012, &rng);  // fragments
    std::vector<double> edge_values(static_cast<size_t>(er.NumEdges()));
    for (auto& v : edge_values)
      v = static_cast<double>(rng.UniformInt(7));
    ExpectPairInvariants(
        BuildEdgeScalarTree(er, EdgeScalarField("f", edge_values)));
  }
}

TEST(PersistenceTest, ZeroThresholdIsTheIdentity) {
  Rng rng(3);
  const Graph g = BarabasiAlbert(200, 3, &rng);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = rng.UniformDouble();
  const VertexScalarField field("f", values);
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  EXPECT_EQ(PersistenceSimplifiedValues(tree, 0.0), tree.Values());
  EXPECT_EQ(PersistenceSimplifiedValues(tree, -1.0), tree.Values());
}

TEST(PersistenceTest, CancelsExactlyTheLowPersistencePeak) {
  // tau = 4 kills the persistence-3 peak at v1 (clamped down to its
  // death value 2) and must leave everything else bit-identical.
  const Graph g = Path(5);
  const VertexScalarField field("f", {1.0, 5.0, 2.0, 6.0, 3.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  const std::vector<double> simplified =
      PersistenceSimplifiedValues(tree, 4.0);
  const std::vector<double> expected{1.0, 2.0, 2.0, 6.0, 3.0};
  EXPECT_EQ(simplified, expected);

  const SuperTree super = SimplifyByPersistence(g, field, 4.0);
  EXPECT_EQ(CountComponentsAtLevel(super, 5.0), 1u);  // peak v1 gone
  EXPECT_EQ(CountComponentsAtLevel(super, 3.0), 1u);
  EXPECT_EQ(super.NumRoots(), 1u);
}

TEST(PersistenceTest, NestedCancellationsCascade) {
  // Plateau profile 1-4-2-3-2-9: cancelling at tau = 2.5 kills the
  // persistence-1 bump at v3 AND the persistence-2 peak at v1 (clamped
  // through its own death to 1's branch floor).
  const Graph g = Path(6);
  const VertexScalarField field("f", {1.0, 4.0, 2.0, 3.0, 2.0, 9.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  // Pairs: essential (9 @ v5, death 1), v1 (4, dies at 2, pers 2),
  // v3 (3, dies at 2, pers 1).
  const auto pairs = PersistencePairs(tree);
  ASSERT_EQ(pairs.size(), 3u);
  const std::vector<double> simplified =
      PersistenceSimplifiedValues(tree, 2.5);
  const std::vector<double> expected{1.0, 2.0, 2.0, 2.0, 2.0, 9.0};
  EXPECT_EQ(simplified, expected);
}

// The simplification contract on `tree`: no value moves by tau or more,
// and rebuilding on the cancelled values keeps exactly the original
// pairs with persistence >= tau (plus all essential pairs), unchanged.
// Clamping flattens the cancelled branches into plateaus, and the id
// tie-break can split a plateau into several sweep leaves — those
// contribute pairs of persistence exactly 0, and nothing else: no
// feature strictly between 0 and tau survives or appears. `rebuild`
// builds the same kind of tree over the same graph from new values.
template <typename Rebuild>
void ExpectSimplificationContract(const ScalarTree& tree, double tau,
                                  Rebuild&& rebuild) {
  std::multiset<double> expected;
  for (const auto& pair : PersistencePairs(tree)) {
    if (pair.essential || pair.Persistence() >= tau)
      expected.insert(pair.Persistence());
  }
  const std::vector<double> values = PersistenceSimplifiedValues(tree, tau);
  ASSERT_EQ(values.size(), tree.Values().size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_LT(std::abs(values[i] - tree.Values()[i]), tau) << "element " << i;
  }
  const ScalarTree simplified = rebuild(values);
  std::multiset<double> actual;
  for (const auto& pair : PersistencePairs(simplified)) {
    if (pair.Persistence() > 0.0 || pair.essential)
      actual.insert(pair.Persistence());
    EXPECT_TRUE(pair.essential || pair.Persistence() >= tau ||
                pair.Persistence() == 0.0)
        << "feature below tau survived: " << pair.Persistence();
  }
  EXPECT_EQ(actual, expected);
}

TEST(PersistenceTest, SurvivingPairsMatchOriginalAboveThreshold) {
  const double tau = 3.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Graph g = BarabasiAlbert(250, 3, &rng);
    std::vector<double> values(g.NumVertices());
    for (auto& v : values) v = static_cast<double>(rng.UniformInt(12));
    ExpectSimplificationContract(
        BuildVertexScalarTree(g, VertexScalarField("f", values)), tau,
        [&](const std::vector<double>& simplified) {
          return BuildVertexScalarTree(g, VertexScalarField("f", simplified));
        });

    const Graph er = ErdosRenyi(200, 0.03, &rng);
    std::vector<double> edge_values(static_cast<size_t>(er.NumEdges()));
    for (auto& v : edge_values) v = 12.0 * rng.UniformDouble();
    ExpectSimplificationContract(
        BuildEdgeScalarTree(er, EdgeScalarField("f", edge_values)), tau,
        [&](const std::vector<double>& simplified) {
          return BuildEdgeScalarTree(er, EdgeScalarField("f", simplified));
        });
  }
}

TEST(PersistenceTest, ConsistentWithLevelQuantizationOnMatchedKnobs) {
  // §II-E quantization to L levels kills every feature whose persistence
  // is below (max - min) / L; SimplifyByPersistence with that threshold
  // is the surgical version. On the two-peak path both agree on the
  // surviving peak structure for every L.
  const Graph g = Path(5);
  const VertexScalarField field("f", {1.0, 5.0, 2.0, 6.0, 3.0});
  const double range = field.MaxValue() - field.MinValue();
  for (const uint32_t levels : {1u, 2u, 4u}) {
    const double tau = range / levels;
    const SuperTree by_persistence = SimplifyByPersistence(g, field, tau);
    const SuperTree by_levels = SimplifiedVertexSuperTree(g, field, levels);
    EXPECT_EQ(TopPeaks(by_persistence, 100).size(),
              TopPeaks(by_levels, 100).size())
        << "levels " << levels;
    EXPECT_EQ(by_persistence.NumRoots(), by_levels.NumRoots());
  }
  // And the persistence path preserves exact values where quantization
  // smears: at L = 2 the surviving peaks keep summits 5 and 6.
  const auto peaks =
      PeaksAtLevel(SimplifyByPersistence(g, field, range / 2), 5.0);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_DOUBLE_EQ(peaks[0].max_scalar, 6.0);
  EXPECT_DOUBLE_EQ(peaks[1].max_scalar, 5.0);
}

TEST(PersistenceTest, EdgeTreeSimplificationSharesTheCore) {
  // Bridge of minimal trussness between two triangles: KT field has two
  // persistence features; a threshold above their gap keeps only the
  // elder triangle's peak.
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(3, 5);
  builder.AddEdge(4, 5);
  const Graph g = builder.Build();
  const EdgeScalarField field("f", {7.0, 8.0, 9.0, 1.0, 4.0, 5.0, 6.0});
  const ScalarTree tree = BuildEdgeScalarTree(g, field);
  const auto pairs = PersistencePairs(tree);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_TRUE(pairs[0].essential);
  EXPECT_DOUBLE_EQ(pairs[1].birth, 6.0);
  EXPECT_DOUBLE_EQ(pairs[1].death, 1.0);

  const SuperTree simplified = SimplifyEdgeByPersistence(g, field, 6.0);
  EXPECT_EQ(CountComponentsAtLevel(simplified, 6.0), 1u);
  EXPECT_EQ(CountComponentsAtLevel(simplified, 2.0), 1u);
}

}  // namespace
}  // namespace graphscape
