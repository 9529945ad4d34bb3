// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Definition-level oracles for the K-Core and (3,4)-nucleus
// decompositions. The k-core is the largest subgraph in which every
// vertex keeps at least k neighbours; the k-(3,4)-nucleus is the largest
// set of triangles in which every triangle lies in at least k 4-cliques
// whose four triangles are all in the set. Each oracle finds it for every
// k by deleting, over and over, every vertex (triangle) below k, and the
// answer for an item is the largest k that keeps it. They share no code
// with CoreNumbers or Nucleus34 (no peel, no support counting, no
// intersection layer), so agreement pins the peel's answer, not its
// mechanics. The ktruss_oracle_test covers the edge peel.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/intersect.h"
#include "metrics/kcore.h"
#include "metrics/nucleus.h"

namespace graphscape {
namespace {

std::vector<uint32_t> OracleCoreNumbers(const Graph& g) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> core(n, 0);
  for (uint32_t k = 1;; ++k) {
    std::vector<char> alive(n, 1);
    for (bool deleted = true; deleted;) {
      deleted = false;
      std::vector<VertexId> doomed;
      for (VertexId v = 0; v < n; ++v) {
        if (!alive[v]) continue;
        uint32_t live_neighbors = 0;
        for (const VertexId u : g.Neighbors(v)) live_neighbors += alive[u];
        if (live_neighbors < k) doomed.push_back(v);
      }
      for (const VertexId v : doomed) {
        alive[v] = 0;
        deleted = true;
      }
    }
    bool any = false;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) {
        core[v] = k;
        any = true;
      }
    }
    if (!any) return core;
  }
}

using Triple = std::array<VertexId, 3>;

// Brute force over a dense adjacency matrix: every ascending triple and
// quadruple is tested directly. Keep n small (<= 40).
std::map<Triple, uint32_t> OracleNucleusNumbers(const Graph& g) {
  const uint32_t n = g.NumVertices();
  std::vector<char> adj(static_cast<size_t>(n) * n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      adj[static_cast<size_t>(u) * n + v] = 1;
    }
  }
  auto edge = [&](VertexId a, VertexId b) {
    return adj[static_cast<size_t>(a) * n + b] != 0;
  };
  std::map<Triple, uint32_t> id_of;
  std::vector<Triple> triangles;
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      for (VertexId c = b + 1; c < n; ++c) {
        if (edge(a, b) && edge(a, c) && edge(b, c)) {
          id_of[{a, b, c}] = static_cast<uint32_t>(triangles.size());
          triangles.push_back({a, b, c});
        }
      }
    }
  }
  // Each 4-clique as its four triangle ids, and each triangle's cliques.
  std::vector<std::array<uint32_t, 4>> cliques;
  std::vector<std::vector<uint32_t>> cliques_of(triangles.size());
  for (const Triple& tri : triangles) {
    for (VertexId d = tri[2] + 1; d < n; ++d) {
      if (!edge(tri[0], d) || !edge(tri[1], d) || !edge(tri[2], d)) continue;
      const std::array<uint32_t, 4> faces = {
          id_of.at(tri), id_of.at({tri[0], tri[1], d}),
          id_of.at({tri[0], tri[2], d}), id_of.at({tri[1], tri[2], d})};
      for (const uint32_t face : faces) {
        cliques_of[face].push_back(static_cast<uint32_t>(cliques.size()));
      }
      cliques.push_back(faces);
    }
  }

  std::vector<uint32_t> nucleus(triangles.size(), 0);
  for (uint32_t k = 1;; ++k) {
    std::vector<char> alive(triangles.size(), 1);
    for (bool deleted = true; deleted;) {
      deleted = false;
      std::vector<uint32_t> doomed;
      for (uint32_t t = 0; t < triangles.size(); ++t) {
        if (!alive[t]) continue;
        uint32_t intact = 0;
        for (const uint32_t q : cliques_of[t]) {
          const auto& faces = cliques[q];
          intact += alive[faces[0]] && alive[faces[1]] && alive[faces[2]] &&
                    alive[faces[3]];
        }
        if (intact < k) doomed.push_back(t);
      }
      for (const uint32_t t : doomed) {
        alive[t] = 0;
        deleted = true;
      }
    }
    bool any = false;
    for (uint32_t t = 0; t < triangles.size(); ++t) {
      if (alive[t]) {
        nucleus[t] = k;
        any = true;
      }
    }
    if (!any) break;
  }
  std::map<Triple, uint32_t> result;
  for (uint32_t t = 0; t < triangles.size(); ++t) {
    result[triangles[t]] = nucleus[t];
  }
  return result;
}

void ExpectCoreMatchesOracle(const Graph& g) {
  EXPECT_EQ(CoreNumbers(g), OracleCoreNumbers(g));
}

void ExpectNucleusMatchesOracle(const Graph& g) {
  const NucleusDecomposition d = Nucleus34(g);
  ASSERT_EQ(d.triangles.size(), d.nucleus_numbers.size());
  std::map<Triple, uint32_t> got;
  for (size_t t = 0; t < d.triangles.size(); ++t) {
    got[d.triangles[t]] = d.nucleus_numbers[t];
  }
  EXPECT_EQ(got.size(), d.triangles.size()) << "a triangle is listed twice";
  EXPECT_EQ(got, OracleNucleusNumbers(g));
}

void ExpectBothMatchOracles(const Graph& g) {
  ExpectCoreMatchesOracle(g);
  ExpectNucleusMatchesOracle(g);
}

void AddClique(const std::vector<VertexId>& members, GraphBuilder* builder) {
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      builder->AddEdge(members[i], members[j]);
    }
  }
}

Graph Star(uint32_t leaves) {
  GraphBuilder builder(leaves + 1);
  for (VertexId v = 1; v <= leaves; ++v) builder.AddEdge(0, v);
  return builder.Build();
}

Graph Path(uint32_t n) {
  GraphBuilder builder(n);
  for (VertexId v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

// Each vertex v becomes n - 1 - v: a star's hub, or a Barabasi-Albert
// graph's oldest vertices, get the largest ids, so the graph's degree
// order (Graph::ByDegree), which CoreNumbers peels in, runs against id
// order.
Graph Reversed(const Graph& g) {
  const uint32_t n = g.NumVertices();
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : g.Neighbors(v)) {
      if (v < u) builder.AddEdge(n - 1 - v, n - 1 - u);
    }
  }
  return builder.Build();
}

Graph Complete(uint32_t n) {
  GraphBuilder builder(n);
  std::vector<VertexId> members(n);
  for (VertexId v = 0; v < n; ++v) members[v] = v;
  AddClique(members, &builder);
  return builder.Build();
}

// K_a on 0..a-1 and K_b on a..a+b-1, joined by the edge {a-1, a}.
Graph BridgedCliques(uint32_t a, uint32_t b) {
  GraphBuilder builder(a + b);
  std::vector<VertexId> left, right;
  for (VertexId v = 0; v < a; ++v) left.push_back(v);
  for (VertexId v = a; v < a + b; ++v) right.push_back(v);
  AddClique(left, &builder);
  AddClique(right, &builder);
  builder.AddEdge(a - 1, a);
  return builder.Build();
}

// Vertex 0 is a hub over every other vertex and sits in a planted
// 7-clique {0..6}. The leaves close small 4-cliques through the hub,
// hang off one or two clique members, or stay pendant. The hub's degree
// far exceeds its core number, and every leaf-closed 4-clique through a
// clique triangle adds support that must be taken back exactly once, so a
// demotion that skips its floor or its peeled guard moves the answer.
Graph HubPlusClique(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  for (VertexId v = 1; v < n; ++v) builder.AddEdge(0, v);
  AddClique({0, 1, 2, 3, 4, 5, 6}, &builder);
  for (VertexId v = 7; v + 2 < n; v += 3) {
    const double shape = rng.UniformDouble();
    const VertexId a = 1 + static_cast<VertexId>(rng.UniformInt(6));
    const VertexId b = 1 + (a % 6);
    if (shape < 0.3) {
      AddClique({0, v, v + 1, v + 2}, &builder);
    } else if (shape < 0.6) {
      AddClique({0, a, b, v}, &builder);
      AddClique({0, a, v + 1}, &builder);
    } else if (shape < 0.85) {
      builder.AddEdge(v, a);
      builder.AddEdge(v + 1, v + 2);
    }
  }
  return builder.Build();
}

// The book graph: the spine {0, 1} and pages 2..33, each adjacent to
// both hubs, so the spine's triangle run (32 pairs) is 32x the run of
// every pure page's edges {0, y} and {1, y} (1 pair each). Pages 2-3 and
// 2-4 close the 4-cliques {0, 1, 2, 3} and {0, 1, 2, 4}; 2 and 3 also sit
// in a K6 with 0 and 34..36 and in a K6 with 1 and 37..39. At level 1,
// (0, 1, 3) peels before (0, 1, 2), whose peel then meets 3 in the
// spine's run: only (0, 1, 3)'s tombstone there keeps that destroyed
// clique from demoting (0, 2, 3) and (1, 2, 3), which hold at 3 in their
// K6s.
Graph BookGraph() {
  GraphBuilder builder(40);
  builder.AddEdge(0, 1);
  for (VertexId page = 2; page <= 33; ++page) {
    builder.AddEdge(0, page);
    builder.AddEdge(1, page);
  }
  builder.AddEdge(2, 3);
  builder.AddEdge(2, 4);
  AddClique({0, 2, 3, 34, 35, 36}, &builder);
  AddClique({1, 2, 3, 37, 38, 39}, &builder);
  return builder.Build();
}

// Hub 5 over every other vertex, so its 64 neighbours above it are at
// least 32x the neighbours above 5 of every pivot 0..4 (one or two): the
// triangle enumeration walks those and gallops through the hub's run.
// The pivots close K4 {0, 5, 6, 7}, K4 {1, 2, 5, 8} and K5 {3, 4, 5, 9,
// 10}; the hub's leaves close K5 {5, 20, 21, 22, 23}.
Graph PivotsBelowHub() {
  GraphBuilder builder(70);
  for (VertexId v = 0; v < 70; ++v) {
    if (v != 5) builder.AddEdge(5, v);
  }
  AddClique({0, 5, 6, 7}, &builder);
  AddClique({1, 2, 5, 8}, &builder);
  AddClique({3, 4, 5, 9, 10}, &builder);
  AddClique({5, 20, 21, 22, 23}, &builder);
  return builder.Build();
}

TEST(PeelOracleTest, DegenerateGraphs) {
  ExpectBothMatchOracles(Graph());
  ExpectBothMatchOracles(GraphBuilder(6).Build());  // isolated vertices only
  GraphBuilder single(2);
  single.AddEdge(0, 1);
  ExpectBothMatchOracles(single.Build());
}

TEST(PeelOracleTest, StarsAndPaths) {
  for (const uint32_t size : {2u, 5u, 30u}) {
    SCOPED_TRACE(size);
    ExpectBothMatchOracles(Star(size));
    ExpectBothMatchOracles(Reversed(Star(size)));  // the hub's id is last
    ExpectBothMatchOracles(Path(size));
  }
}

TEST(PeelOracleTest, CompleteGraphs) {
  for (const uint32_t n : {3u, 4u, 5u, 8u, 12u}) {
    SCOPED_TRACE(n);
    ExpectBothMatchOracles(Complete(n));
  }
}

TEST(PeelOracleTest, BridgedCliques) {
  ExpectBothMatchOracles(BridgedCliques(4, 4));
  ExpectBothMatchOracles(BridgedCliques(5, 8));
  ExpectBothMatchOracles(BridgedCliques(3, 10));
}

TEST(PeelOracleTest, ErdosRenyiGraphs) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ExpectBothMatchOracles(ErdosRenyi(30, 0.35, &rng));
    ExpectBothMatchOracles(ErdosRenyi(40, 0.2, &rng));
    ExpectCoreMatchesOracle(ErdosRenyi(200, 0.04, &rng));
  }
}

TEST(PeelOracleTest, BarabasiAlbertGraphs) {
  for (const uint64_t seed : {5u, 6u, 7u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ExpectBothMatchOracles(BarabasiAlbert(40, 4, &rng));
    ExpectCoreMatchesOracle(BarabasiAlbert(300, 3, &rng));
    ExpectBothMatchOracles(Reversed(BarabasiAlbert(40, 4, &rng)));
    ExpectCoreMatchesOracle(Reversed(BarabasiAlbert(300, 3, &rng)));
  }
}

TEST(PeelOracleTest, PlantedCliqueWithHubLeaves) {
  for (const uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE(seed);
    ExpectBothMatchOracles(HubPlusClique(40, seed));
  }
}

TEST(PeelOracleTest, BookGraphHubRunTombstones) {
  const Graph g = BookGraph();
  std::map<Triple, uint32_t> oracle = OracleNucleusNumbers(g);
  uint32_t spine = 0;
  for (const auto& [tri, number] : oracle) spine += tri[0] == 0 && tri[1] == 1;
  ASSERT_EQ(spine, 32u);
  ASSERT_EQ(oracle.count({0, 1, 5}), 1u);
  ASSERT_EQ(oracle.count({0, 5, 6}), 0u);  // page 5's edges: one triangle
  EXPECT_EQ(oracle.at({0, 2, 3}), 3u);
  EXPECT_EQ(oracle.at({1, 2, 3}), 3u);
  ExpectBothMatchOracles(g);
}

TEST(PeelOracleTest, PivotsBelowAHubGallopThroughIt) {
  const Graph g = PivotsBelowHub();
  ASSERT_EQ(g.Degree(5), 69u);
  ASSERT_TRUE(intersect::detail::Skewed(2, 64));
  ExpectNucleusMatchesOracle(g);
}

TEST(PeelOracleTest, NucleusBeyondTwoToThe21Vertices) {
  // Triangles are ids into per-edge runs, not packed vertex keys, so no
  // vertex count is too large: an oracle-checked graph moved to ids at
  // and above 2^21 decomposes to the same numbers.
  const Graph small = HubPlusClique(40, 21);
  ExpectNucleusMatchesOracle(small);
  const VertexId shift = 1u << 21;
  GraphBuilder builder(shift + small.NumVertices());
  for (VertexId u = 0; u < small.NumVertices(); ++u) {
    for (const VertexId v : small.Neighbors(u)) {
      if (u < v) builder.AddEdge(shift + u, shift + v);
    }
  }
  const NucleusDecomposition expected = Nucleus34(small);
  const NucleusDecomposition got = Nucleus34(builder.Build());
  ASSERT_GT(expected.triangles.size(), 0u);
  ASSERT_EQ(got.triangles.size(), expected.triangles.size());
  for (size_t t = 0; t < got.triangles.size(); ++t) {
    const Triple& tri = expected.triangles[t];
    EXPECT_EQ(got.triangles[t],
              (Triple{shift + tri[0], shift + tri[1], shift + tri[2]}));
  }
  EXPECT_EQ(got.nucleus_numbers, expected.nucleus_numbers);
}

}  // namespace
}  // namespace graphscape
