// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Analysis queries vs brute-force oracles. Members/SubtreeMembers are
// checked against NodeOf/ancestor-walk scans; CountComponentsAtLevel and
// PeaksAtLevel against BFS over the superlevel subgraph — on ER, BA and
// collaboration graphs, for vertex AND edge trees (vertex trees also on
// path, star, sparse and degenerate shapes). The hand-built cases
// pin the orientation-critical behavior: disconnected dense cores must
// stay distinct peaks (the query a minima-rooted tree cannot answer).

#include "scalar/tree_queries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "metrics/kcore.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"

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

VertexScalarField RandomField(uint32_t n, uint64_t seed, uint32_t distinct) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = static_cast<double>(rng.UniformInt(distinct));
  return VertexScalarField("f", std::move(values));
}

// Oracle: components of the superlevel subgraph {v : f(v) >= level} via
// BFS, as sorted member sets.
std::vector<std::vector<uint32_t>> VertexSuperlevelComponents(
    const Graph& g, const std::vector<double>& values, double level) {
  std::vector<char> in(g.NumVertices(), 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) in[v] = values[v] >= level;
  std::vector<char> seen(g.NumVertices(), 0);
  std::vector<std::vector<uint32_t>> components;
  for (VertexId s = 0; s < g.NumVertices(); ++s) {
    if (!in[s] || seen[s]) continue;
    std::vector<uint32_t> component, frontier{s};
    seen[s] = 1;
    while (!frontier.empty()) {
      const VertexId v = frontier.back();
      frontier.pop_back();
      component.push_back(v);
      for (const VertexId u : g.Neighbors(v)) {
        if (in[u] && !seen[u]) {
          seen[u] = 1;
          frontier.push_back(u);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

// Oracle for edge trees: components of {e : f(e) >= level} where two
// edges are adjacent iff they share an endpoint.
std::vector<std::vector<uint32_t>> EdgeSuperlevelComponents(
    const Graph& g, const std::vector<double>& values, double level) {
  const uint32_t m = static_cast<uint32_t>(g.NumEdges());
  std::vector<std::vector<uint32_t>> incident(g.NumVertices());
  for (uint32_t e = 0; e < m; ++e) {
    incident[g.EdgeEndpoints(e).first].push_back(e);
    incident[g.EdgeEndpoints(e).second].push_back(e);
  }
  std::vector<char> seen(m, 0);
  std::vector<std::vector<uint32_t>> components;
  for (uint32_t s = 0; s < m; ++s) {
    if (values[s] < level || seen[s]) continue;
    std::vector<uint32_t> component, frontier{s};
    seen[s] = 1;
    while (!frontier.empty()) {
      const uint32_t e = frontier.back();
      frontier.pop_back();
      component.push_back(e);
      const auto [u, v] = g.EdgeEndpoints(e);
      for (const VertexId endpoint : {u, v}) {
        for (const uint32_t other : incident[endpoint]) {
          if (values[other] >= level && !seen[other]) {
            seen[other] = 1;
            frontier.push_back(other);
          }
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

std::vector<std::vector<uint32_t>> PeakMemberSets(const SuperTree& tree,
                                                  double level) {
  std::vector<std::vector<uint32_t>> sets;
  for (const Peak& peak : PeaksAtLevel(tree, level)) {
    const MemberRange range = tree.SubtreeMembers(peak.super_node);
    std::vector<uint32_t> members(range.begin(), range.end());
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members.size(), peak.member_count);
    sets.push_back(std::move(members));
  }
  std::sort(sets.begin(), sets.end());
  return sets;
}

void ExpectQueriesMatchOracle(const Graph& g, const SuperTree& tree,
                              const std::vector<double>& element_values,
                              bool edge_tree) {
  // Members == the NodeOf fibration, ascending.
  std::vector<std::vector<uint32_t>> expected_members(tree.NumNodes());
  for (uint32_t e = 0; e < tree.NumElements(); ++e)
    expected_members[tree.NodeOf(e)].push_back(e);
  uint64_t total = 0;
  for (uint32_t node = 0; node < tree.NumNodes(); ++node) {
    const MemberRange range = tree.Members(node);
    ASSERT_EQ(range.size(), expected_members[node].size()) << "node " << node;
    for (uint32_t i = 0; i < range.size(); ++i)
      EXPECT_EQ(range[i], expected_members[node][i]);
    total += range.size();
  }
  EXPECT_EQ(total, tree.NumElements());

  // SubtreeMembers == union of Members over the ancestor-closed set.
  for (uint32_t node = 0; node < tree.NumNodes(); ++node) {
    std::set<uint32_t> expected;
    for (uint32_t e = 0; e < tree.NumElements(); ++e) {
      for (uint32_t walk = tree.NodeOf(e); walk != kNoParent;
           walk = tree.Parent(walk)) {
        if (walk == node) {
          expected.insert(e);
          break;
        }
      }
    }
    const MemberRange range = tree.SubtreeMembers(node);
    std::set<uint32_t> actual(range.begin(), range.end());
    EXPECT_EQ(actual, expected) << "node " << node;
  }

  // Level queries vs BFS over the superlevel subgraph, at every distinct
  // value plus a level above the maximum (empty superlevel set).
  std::set<double> levels(element_values.begin(), element_values.end());
  double above = levels.empty() ? 1.0 : (*levels.rbegin() + 1.0);
  levels.insert(above);
  for (const double level : levels) {
    const std::vector<std::vector<uint32_t>> oracle =
        edge_tree ? EdgeSuperlevelComponents(g, element_values, level)
                  : VertexSuperlevelComponents(g, element_values, level);
    EXPECT_EQ(CountComponentsAtLevel(tree, level), oracle.size())
        << "level " << level;
    std::vector<std::vector<uint32_t>> sorted_oracle(oracle);
    std::sort(sorted_oracle.begin(), sorted_oracle.end());
    EXPECT_EQ(PeakMemberSets(tree, level), sorted_oracle)
        << "level " << level;
  }
}

TEST(TreeQueriesTest, VertexQueriesMatchOraclesOnThreeGraphFamilies) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Graph ba = BarabasiAlbert(80, 3, &rng);
    const Graph er = ErdosRenyi(90, 0.05, &rng);
    CollaborationOptions options;
    options.num_vertices = 100;
    options.num_planted_cores = 2;
    options.planted_core_size = 8;
    const Graph collab = CollaborationNetwork(options, &rng);
    for (const Graph* g : {&ba, &er, &collab}) {
      const VertexScalarField field =
          RandomField(g->NumVertices(), seed * 13, 6);
      const SuperTree tree(BuildVertexScalarTree(*g, field));
      ExpectQueriesMatchOracle(*g, tree, field.Values(), false);
    }
  }

  // Shapes that stress the sweep's merges and ties: a saddle mid-path,
  // a hub, isolated vertices, a constant field, and degenerate sizes.
  const auto check = [](const Graph& g, const std::vector<double>& values) {
    const VertexScalarField field("f", values);
    const SuperTree tree(BuildVertexScalarTree(g, field));
    ExpectQueriesMatchOracle(g, tree, values, false);
  };
  std::vector<double> two_peak(257);
  for (uint32_t v = 0; v < 257; ++v) {
    const double x = static_cast<double>(v);
    const double left = 100.0 - std::abs(60.0 - x);
    const double right = 95.0 - std::abs(190.0 - x);
    two_peak[v] = std::max(left, right);
  }
  check(Path(257), two_peak);
  check(Star(64), RandomField(65, 9, 1u << 30).Values());
  check(Star(64), RandomField(65, 9, 3).Values());
  Rng rng(3);
  const Graph sparse = ErdosRenyi(300, 0.004, &rng);
  uint32_t isolated = 0;
  for (VertexId v = 0; v < sparse.NumVertices(); ++v)
    isolated += sparse.Degree(v) == 0;
  EXPECT_GT(isolated, 0u);
  check(sparse, RandomField(300, 21, 1u << 30).Values());
  const Graph prime_ba = BarabasiAlbert(331, 3, &rng);
  check(prime_ba, std::vector<double>(331, 1.0));
  check(GraphBuilder(0).Build(), {});
  check(GraphBuilder(1).Build(), {0.5});
  check(Path(3), {1.0, 3.0, 2.0});
}

TEST(TreeQueriesTest, EdgeQueriesMatchOraclesOnThreeGraphFamilies) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    Rng rng(seed);
    const Graph ba = BarabasiAlbert(60, 3, &rng);
    const Graph er = ErdosRenyi(70, 0.05, &rng);
    CollaborationOptions options;
    options.num_vertices = 80;
    options.num_planted_cores = 1;
    options.planted_core_size = 6;
    const Graph collab = CollaborationNetwork(options, &rng);
    for (const Graph* g : {&ba, &er, &collab}) {
      Rng field_rng(seed * 17);
      std::vector<double> values(static_cast<size_t>(g->NumEdges()));
      for (auto& v : values)
        v = static_cast<double>(field_rng.UniformInt(5));
      const EdgeScalarField field("f", values);
      const SuperTree tree(BuildEdgeScalarTree(*g, field));
      ExpectQueriesMatchOracle(*g, tree, values, true);
    }
  }
}

TEST(TreeQueriesTest, DisconnectedDenseCoresStayDistinctPeaks) {
  // The orientation-critical case: two vertices at the maximum separated
  // by a valley. A minima-rooted (join) tree contracts both maxima into
  // one same-value chain; the superlevel tree must report two peaks.
  const Graph g = Path(3);
  const VertexScalarField field("f", {1.0, 0.0, 1.0});
  const SuperTree tree(BuildVertexScalarTree(g, field));
  EXPECT_EQ(CountComponentsAtLevel(tree, 1.0), 2u);
  const auto peaks = PeaksAtLevel(tree, 1.0);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].member_count, 1u);
  EXPECT_EQ(peaks[1].member_count, 1u);
  EXPECT_EQ(CountComponentsAtLevel(tree, 0.0), 1u);
}

TEST(TreeQueriesTest, PlantedCoresShowUpAsTopPeaks) {
  // Two disjoint 12-cliques joined only through a sparse path drive the
  // K-Core maximum; both must surface as separate peaks at the top
  // level, each resting on the sparser foundation (a parent below the
  // level). This is Fig. 6(c)'s structural readout in miniature.
  GraphBuilder builder(26);
  for (VertexId u = 0; u < 12; ++u)
    for (VertexId v = u + 1; v < 12; ++v) builder.AddEdge(u, v);
  for (VertexId u = 12; u < 24; ++u)
    for (VertexId v = u + 1; v < 24; ++v) builder.AddEdge(u, v);
  builder.AddEdge(11, 24);
  builder.AddEdge(24, 25);
  builder.AddEdge(25, 12);
  const Graph g = builder.Build();
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(g));
  EXPECT_DOUBLE_EQ(kc.MaxValue(), 11.0);
  const SuperTree tree(BuildVertexScalarTree(g, kc));
  const auto peaks = PeaksAtLevel(tree, kc.MaxValue());
  ASSERT_EQ(peaks.size(), 2u);
  for (const Peak& peak : peaks) {
    EXPECT_EQ(peak.member_count, 12u);
    EXPECT_EQ(peak.max_scalar, kc.MaxValue());
    EXPECT_NE(tree.Parent(peak.super_node), kNoParent);
  }
  EXPECT_EQ(CountComponentsAtLevel(tree, 2.0), 1u);
}

TEST(TreeQueriesTest, PeaksAreSortedBySummitThenSize) {
  // Path with three plateaus at heights 3, 2, 3 (sizes 1, 2, 3) above a
  // ground level of 0.
  const Graph g = Path(9);
  const VertexScalarField field(
      "f", {3.0, 0.0, 2.0, 2.0, 0.0, 3.0, 3.0, 3.0, 0.0});
  const SuperTree tree(BuildVertexScalarTree(g, field));
  const auto peaks = PeaksAtLevel(tree, 2.0);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0].max_scalar, 3.0);
  EXPECT_EQ(peaks[0].member_count, 3u);  // summit ties: bigger first
  EXPECT_EQ(peaks[1].max_scalar, 3.0);
  EXPECT_EQ(peaks[1].member_count, 1u);
  EXPECT_EQ(peaks[2].max_scalar, 2.0);
  EXPECT_EQ(peaks[2].member_count, 2u);
}

TEST(TreeQueriesTest, TopPeaksRanksLeavesByValue) {
  const Graph g = Path(9);
  const VertexScalarField field(
      "f", {3.0, 0.0, 2.0, 2.0, 0.0, 5.0, 5.0, 5.0, 0.0});
  const SuperTree tree(BuildVertexScalarTree(g, field));
  const auto top = TopPeaks(tree, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].max_scalar, 5.0);
  EXPECT_EQ(top[0].member_count, 3u);
  EXPECT_EQ(top[1].max_scalar, 3.0);
  EXPECT_EQ(top[1].member_count, 1u);
  // k beyond the leaf count returns every leaf.
  EXPECT_EQ(TopPeaks(tree, 100).size(), 3u);
  EXPECT_TRUE(TopPeaks(tree, 0).empty());
}

TEST(TreeQueriesTest, MemberIndexIsSharedAcrossCopies) {
  Rng rng(11);
  const Graph g = BarabasiAlbert(200, 3, &rng);
  const VertexScalarField field = RandomField(g.NumVertices(), 3, 8);
  const SuperTree tree(BuildVertexScalarTree(g, field));
  const TreeMemberIndex* index = &tree.MemberIndex();
  const SuperTree copy = tree;  // copies share the built index
  EXPECT_EQ(&copy.MemberIndex(), index);
}

}  // namespace
}  // namespace graphscape
