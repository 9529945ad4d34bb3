// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Definition-level oracle for the K-Truss decomposition. The k-truss is
// the largest subgraph in which every edge closes at least k - 2
// triangles; this oracle finds it for each k by deleting, over and over,
// every edge with fewer than k - 2 triangles left, and truss[e] is the
// largest k whose truss keeps e. It shares no code with TrussNumbers
// (no support counting, no peel, no intersection layer, no
// EdgeIndex), so agreement pins the peel's answer, not its mechanics.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/intersect.h"
#include "metrics/ktruss.h"

namespace graphscape {
namespace {

// Brute force over a dense alive-edge matrix: O(m * n) per deletion round.
std::vector<uint32_t> OracleTrussNumbers(const Graph& g) {
  const uint32_t n = g.NumVertices();
  const std::vector<std::pair<VertexId, VertexId>> edges = EdgeList(g);
  std::vector<uint32_t> truss(edges.size(), 2);
  for (uint32_t k = 3;; ++k) {
    std::vector<char> alive(static_cast<size_t>(n) * n, 0);
    std::vector<char> edge_alive(edges.size(), 1);
    for (const auto& [u, v] : edges) {
      alive[static_cast<size_t>(u) * n + v] = 1;
      alive[static_cast<size_t>(v) * n + u] = 1;
    }
    for (bool deleted = true; deleted;) {
      deleted = false;
      std::vector<uint32_t> doomed;
      for (uint32_t e = 0; e < edges.size(); ++e) {
        if (!edge_alive[e]) continue;
        const auto [u, v] = edges[e];
        uint32_t triangles = 0;
        for (VertexId w = 0; w < n; ++w) {
          triangles += alive[static_cast<size_t>(u) * n + w] &&
                       alive[static_cast<size_t>(v) * n + w];
        }
        if (triangles < k - 2) doomed.push_back(e);
      }
      for (const uint32_t e : doomed) {
        const auto [u, v] = edges[e];
        edge_alive[e] = 0;
        alive[static_cast<size_t>(u) * n + v] = 0;
        alive[static_cast<size_t>(v) * n + u] = 0;
        deleted = true;
      }
    }
    bool any = false;
    for (uint32_t e = 0; e < edges.size(); ++e) {
      if (edge_alive[e]) {
        truss[e] = k;
        any = true;
      }
    }
    if (!any) return truss;
  }
}

void ExpectMatchesOracle(const Graph& g) {
  const std::vector<uint32_t> oracle = OracleTrussNumbers(g);
  EXPECT_EQ(TrussNumbers(g), oracle);
  for (const uint32_t lanes : {1u, 2u, 4u}) {
    EXPECT_EQ(TrussNumbersParallel(g, {lanes, /*grain=*/8}), oracle)
        << lanes << " lanes";
  }
}

void AddClique(const std::vector<VertexId>& members, GraphBuilder* builder) {
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      builder->AddEdge(members[i], members[j]);
    }
  }
}

TEST(TrussOracleTest, ErdosRenyiGraphs) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    SCOPED_TRACE(seed);
    ExpectMatchesOracle(ErdosRenyi(40, 0.25, &rng));
    ExpectMatchesOracle(ErdosRenyi(90, 0.08, &rng));
  }
}

TEST(TrussOracleTest, PlantedCliques) {
  // Sparse background plus overlapping planted cliques of sizes 5-9: the
  // nested trusses the peel has to separate level by level.
  for (const uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const uint32_t n = 70;
    GraphBuilder builder(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.UniformDouble() < 0.05) builder.AddEdge(u, v);
      }
    }
    for (const uint32_t size : {5u, 7u, 9u}) {
      std::vector<VertexId> members;
      while (members.size() < size) {
        const VertexId v = static_cast<VertexId>(rng.UniformInt(n));
        if (std::find(members.begin(), members.end(), v) == members.end()) {
          members.push_back(v);
        }
      }
      AddClique(members, &builder);
    }
    ExpectMatchesOracle(builder.Build());
  }
}

TEST(TrussOracleTest, HubPlusCliqueTakesTheGallopPath) {
  // Vertex 0 is a hub over 300 leaves and sits in an 8-clique; the leaves
  // form small triangles and 4-cliques through the hub, or hang off one
  // clique member. Every hub-leaf edge pairs a run of ~300 with one of
  // 2-5, past kGallopSkewRatio: the hub skew the mark passes must
  // handle. Support counting scans the leaf's short run from the hub's
  // side, and each hub-leaf peel searches the hub's run for the leaf's
  // neighbours instead of walking it. A hanging leaf x on member y makes
  // the low-support edge {0, x} demote the high-support {0, y}: a search
  // that misses a live triangle changes truss[{0, y}].
  for (const uint64_t seed : {21u, 22u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const uint32_t leaves = 300;
    GraphBuilder builder(leaves + 1);
    for (VertexId v = 1; v <= leaves; ++v) builder.AddEdge(0, v);
    AddClique({0, 1, 2, 3, 4, 5, 6, 7}, &builder);
    for (VertexId v = 8; v + 3 <= leaves; v += 4) {
      const double shape = rng.UniformDouble();
      if (shape < 0.4) {
        AddClique({v, v + 1, v + 2, v + 3}, &builder);
      } else if (shape < 0.8) {
        builder.AddEdge(v, v + 1);
        builder.AddEdge(v + 2, v + 3);
      } else {
        builder.AddEdge(v, 1 + static_cast<VertexId>(rng.UniformInt(7)));
      }
    }
    for (uint32_t extra = 0; extra < 40; ++extra) {
      builder.AddEdge(1 + static_cast<VertexId>(rng.UniformInt(leaves)),
                      1 + static_cast<VertexId>(rng.UniformInt(leaves)));
    }
    const Graph g = builder.Build();
    bool skewed_pair = false;
    for (const auto& [u, v] : EdgeList(g)) {
      const uint32_t lo = std::min(g.Degree(u), g.Degree(v));
      const uint32_t hi = std::max(g.Degree(u), g.Degree(v));
      skewed_pair |= lo >= 2 && hi >= lo * intersect::kGallopSkewRatio;
    }
    ASSERT_TRUE(skewed_pair);
    ExpectMatchesOracle(g);
  }
}

TEST(TrussOracleTest, SearchedHubRunsSkipPeeledEdges) {
  // Hub 0 has 200 pendant leaves, and vertex 1 sits in 20 4-cliques
  // {1, x, c, c'} whose x also touches the hub. Each {0, x} closes one
  // triangle and peels at level 1 while {1, x} lives on to level 2.
  // x's run is short next to the hub's, so that peel searches the hub's
  // run and leaves a tombstone there. Peeling {0, 1} later walks the
  // hub's run against vertex 1's live edges to every x: a tombstone
  // taken for a live edge would demote {1, x} and break its 4-truss.
  const uint32_t gadgets = 20, leaves = 200;
  GraphBuilder builder(2 + 3 * gadgets + leaves);
  builder.AddEdge(0, 1);
  for (VertexId i = 0; i < gadgets; ++i) {
    const VertexId x = 2 + 3 * i;
    AddClique({1, x, x + 1, x + 2}, &builder);
    builder.AddEdge(0, x);
  }
  for (VertexId v = 2 + 3 * gadgets; v < 2 + 3 * gadgets + leaves; ++v) {
    builder.AddEdge(0, v);
  }
  const Graph g = builder.Build();
  ASSERT_TRUE(intersect::detail::Skewed(g.Degree(2), g.Degree(0)));
  ASSERT_FALSE(intersect::detail::Skewed(g.Degree(1), g.Degree(0)));
  ExpectMatchesOracle(g);
}

TEST(TrussOracleTest, OwnershipTieBreaks) {
  // Support counting credits each edge to the endpoint ranked higher by
  // (degree, id). Where degrees tie, only the id decides; an edge owned
  // by neither endpoint or by both shows as a wrong truss number.
  {
    SCOPED_TRACE("K_8");  // every degree is 7
    GraphBuilder builder(8);
    AddClique({0, 1, 2, 3, 4, 5, 6, 7}, &builder);
    ExpectMatchesOracle(builder.Build());
  }
  {
    SCOPED_TRACE("ring of K_5s");  // degrees 4 and 5
    const uint32_t cliques = 6;
    GraphBuilder builder(5 * cliques);
    for (VertexId c = 0; c < cliques; ++c) {
      const VertexId b = 5 * c;
      AddClique({b, b + 1, b + 2, b + 3, b + 4}, &builder);
      builder.AddEdge(b + 4, (b + 5) % (5 * cliques));
    }
    ExpectMatchesOracle(builder.Build());
  }
  {
    // The hub has the highest id and the highest degree; pairs of its
    // leaves close triangles through it, so hub-leaf edges carry support.
    SCOPED_TRACE("clique plus 200 leaves on the highest-id hub");
    const uint32_t leaves = 200;
    const VertexId hub = 6 + leaves;
    GraphBuilder builder(hub + 1);
    AddClique({0, 1, 2, 3, 4, 5, hub}, &builder);
    for (VertexId v = 6; v < hub; ++v) builder.AddEdge(v, hub);
    for (VertexId v = 6; v + 1 < hub; v += 3) builder.AddEdge(v, v + 1);
    ExpectMatchesOracle(builder.Build());
  }
}

TEST(TrussOracleTest, ParallelSupportSpansSeveralBlocks) {
  // Support counting splits the owner vertices into blocks of
  // options.grain. At ExpectMatchesOracle's grain of 8, a 300-vertex
  // graph spans 38 blocks, so every lane of a 4-lane run takes blocks
  // and writes through its own marks.
  Rng rng(31);
  const Graph g = ErdosRenyi(300, 0.05, &rng);
  const ParallelOptions options{4, /*grain=*/8};
  ASSERT_GT((g.NumVertices() + options.grain - 1) / options.grain, 1u);
  ASSERT_EQ(EffectiveLanes(options, g.NumVertices()), 4u);
  ExpectMatchesOracle(g);
}

TEST(TrussOracleTest, DegenerateGraphs) {
  ExpectMatchesOracle(Graph());
  ExpectMatchesOracle(GraphBuilder(5).Build());  // isolated vertices only
  GraphBuilder single(2);
  single.AddEdge(0, 1);
  ExpectMatchesOracle(single.Build());
}

}  // namespace
}  // namespace graphscape
