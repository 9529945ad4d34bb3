// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Differential suite for the sorted-run intersection layer
// (graph/intersect.h): the merge and gallop walks and the entry points
// built on them must agree with a brute-force oracle and with each other,
// on counts, on emitted elements, AND on emission order, across 10k
// seeded adversarial run pairs (empty, disjoint, identical, 1:4096 skew,
// all-ties, lengths 0/1). The triangle mark passes, which share no code
// with this layer, are pinned here against a per-edge
// std::set_intersection oracle. The suite runs under ASan/UBSan and TSan
// via the regular CI matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/intersect.h"
#include "metrics/triangles.h"

namespace graphscape {
namespace {

std::vector<uint32_t> OracleIntersect(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<uint32_t> OracleIntersect3(const std::vector<uint32_t>& a,
                                       const std::vector<uint32_t>& b,
                                       const std::vector<uint32_t>& c) {
  return OracleIntersect(OracleIntersect(a, b), c);
}

// Sorted duplicate-free run of `len` values drawn from [0, universe).
std::vector<uint32_t> MakeRun(uint32_t len, uint32_t universe, Rng* rng) {
  std::set<uint32_t> values;
  while (values.size() < len && values.size() < universe) {
    values.insert(static_cast<uint32_t>(rng->UniformInt(universe)));
  }
  return std::vector<uint32_t>(values.begin(), values.end());
}

void ExpectAllPathsAgree(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b) {
  const std::vector<uint32_t> oracle = OracleIntersect(a, b);
  const uint32_t na = static_cast<uint32_t>(a.size());
  const uint32_t nb = static_cast<uint32_t>(b.size());

  // The shared walk, merging and galloping, in both argument orders:
  // the same elements in the same order, each pointer at the match.
  for (const bool gallop : {false, true}) {
    for (const bool swapped : {false, true}) {
      const std::vector<uint32_t>& x = swapped ? b : a;
      const std::vector<uint32_t>& y = swapped ? a : b;
      std::vector<uint32_t> walked;
      intersect::detail::ForEachMatch(
          x.data(), x.data() + x.size(), y.data(), y.data() + y.size(),
          gallop, [&](const uint32_t* px, const uint32_t* py) {
            EXPECT_EQ(*px, *py);
            walked.push_back(*px);
          });
      EXPECT_EQ(oracle, walked)
          << "gallop " << gallop << " swapped " << swapped;
    }
  }

  EXPECT_EQ(oracle.size(), intersect::Count(a.data(), na, b.data(), nb));
  EXPECT_EQ(oracle.size(), intersect::Count(b.data(), nb, a.data(), na));
}

TEST(IntersectDifferentialTest, HandPickedAdversarialPairs) {
  const std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
      cases = {
          {{}, {}},
          {{}, {1, 2, 3}},
          {{5}, {5}},
          {{5}, {4}},
          {{1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 5, 6, 7, 8}},
          // Disjoint but interleaved: every merge step alternates sides.
          {{0, 2, 4, 6, 8, 10, 12, 14}, {1, 3, 5, 7, 9, 11, 13, 15}},
          // Match exactly at the 4-lane and 8-lane block boundaries.
          {{0, 1, 2, 3, 100, 101, 102, 103},
           {3, 100, 200, 201, 202, 203, 204, 205}},
          {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
           {7, 8, 15, 16, 23, 24, 31, 32, 39, 40, 47, 48, 55, 56, 63, 64}},
          // Non-multiple-of-lane-width lengths with a tail match.
          {{1, 2, 3, 4, 5}, {5}},
          {{1, 2, 3, 4, 5, 6, 7, 8, 9}, {9, 10, 11}},
          // One giant gap the galloping path must leap in one bound.
          {{1, 1000000000}, {2, 3, 4, 5, 6, 7, 8, 9, 1000000000}},
      };
  for (const auto& [a, b] : cases) ExpectAllPathsAgree(a, b);
}

TEST(IntersectDifferentialTest, SeededFuzzTenThousandPairs) {
  // 10k adversarial pairs: lengths sweep 0..~4096 including 1 and
  // non-multiples of the lane width, skews up to 1:4096, and universe
  // sizes from all-ties (dense overlap) to near-disjoint.
  Rng rng(20260807);
  for (uint32_t trial = 0; trial < 10000; ++trial) {
    const uint32_t shape = static_cast<uint32_t>(rng.UniformInt(4));
    uint32_t na, nb;
    switch (shape) {
      case 0:  // balanced small (tails + boundaries)
        na = static_cast<uint32_t>(rng.UniformInt(18));
        nb = static_cast<uint32_t>(rng.UniformInt(18));
        break;
      case 1:  // balanced blocky
        na = 16 + static_cast<uint32_t>(rng.UniformInt(113));
        nb = 16 + static_cast<uint32_t>(rng.UniformInt(113));
        break;
      case 2:  // skewed ~1:100
        na = 1 + static_cast<uint32_t>(rng.UniformInt(8));
        nb = 256 + static_cast<uint32_t>(rng.UniformInt(512));
        break;
      default:  // heavy skew up to 1:4096
        na = 1;
        nb = 4096;
        break;
    }
    // Universe factor 1 forces maximal ties; 16 makes sparse overlap.
    const uint32_t factor = 1u << rng.UniformInt(5);
    const uint32_t universe = std::max(1u, std::max(na, nb) * factor);
    const std::vector<uint32_t> a = MakeRun(na, universe, &rng);
    const std::vector<uint32_t> b = MakeRun(nb, universe, &rng);
    ExpectAllPathsAgree(a, b);
    if (HasFailure()) {
      ADD_FAILURE() << "first failing trial " << trial << " na=" << a.size()
                    << " nb=" << b.size() << " universe=" << universe;
      break;
    }
  }
}

TEST(IntersectDifferentialTest, ThreeWayCountMatchesOracle) {
  Rng rng(99);
  for (uint32_t trial = 0; trial < 2000; ++trial) {
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.UniformInt(600));
    const std::vector<uint32_t> a =
        MakeRun(static_cast<uint32_t>(rng.UniformInt(300)), universe, &rng);
    const std::vector<uint32_t> b =
        MakeRun(static_cast<uint32_t>(rng.UniformInt(300)), universe, &rng);
    const std::vector<uint32_t> c =
        MakeRun(static_cast<uint32_t>(rng.UniformInt(300)), universe, &rng);
    EXPECT_EQ(OracleIntersect3(a, b, c).size(),
              intersect::Count3(a.data(), static_cast<uint32_t>(a.size()),
                                b.data(), static_cast<uint32_t>(b.size()),
                                c.data(), static_cast<uint32_t>(c.size())))
        << "trial " << trial;
  }
}

TEST(IntersectDifferentialTest, ThreeWayCountCrossesChunkBoundaries) {
  // Long runs with dense overlap: every pair match gallops through the
  // longest run from the last survivor, and none may be dropped or
  // counted twice.
  std::vector<uint32_t> a, b, c;
  for (uint32_t i = 0; i < 1500; ++i) {
    a.push_back(i);
    if (i % 2 == 0) b.push_back(i);
    if (i % 3 == 0) c.push_back(i);
  }
  const size_t expected = OracleIntersect3(a, b, c).size();  // i % 6 == 0
  ASSERT_EQ(expected, 250u);
  EXPECT_EQ(expected,
            intersect::Count3(a.data(), static_cast<uint32_t>(a.size()),
                              b.data(), static_cast<uint32_t>(b.size()),
                              c.data(), static_cast<uint32_t>(c.size())));
}

TEST(IntersectGraphApiTest, CallbackWrapperMatchesCountOnEveryPair) {
  Rng rng(7);
  const Graph g = BarabasiAlbert(1 << 9, 6, &rng);
  for (VertexId u = 0; u < g.NumVertices(); u += 3) {
    for (VertexId v = u + 1; v < g.NumVertices(); v += 97) {
      std::vector<VertexId> via_callback;
      ForEachCommonNeighbor(g, u, v, [&](VertexId w) {
        via_callback.push_back(w);
      });
      EXPECT_TRUE(std::is_sorted(via_callback.begin(), via_callback.end()));
      const Graph::NeighborRange ru = g.Neighbors(u);
      const Graph::NeighborRange rv = g.Neighbors(v);
      EXPECT_EQ(via_callback.size(), intersect::Count(ru.begin(), ru.size(),
                                                      rv.begin(), rv.size()));
    }
  }
}

TEST(IntersectGraphApiTest, SlotCallbackNamesTheCommonNeighborInBothRuns) {
  // Hub 0 over 200 leaves plus BA-style clustering among the first 40:
  // hub pairs are past kGallopSkewRatio, the rest merge. Both argument
  // orders, so the shorter run is sometimes u's and sometimes v's.
  GraphBuilder builder(201);
  for (VertexId v = 1; v <= 200; ++v) builder.AddEdge(0, v);
  Rng rng(9);
  for (uint32_t i = 0; i < 300; ++i) {
    builder.AddEdge(1 + static_cast<VertexId>(rng.UniformInt(40)),
                    1 + static_cast<VertexId>(rng.UniformInt(200)));
  }
  const Graph g = builder.Build();
  const std::vector<uint32_t>& offsets = g.Offsets();
  const std::vector<VertexId>& adj = g.Adjacency();
  for (VertexId u = 0; u < 48; ++u) {
    for (VertexId v = 0; v < 48; ++v) {
      if (u == v) continue;
      std::vector<VertexId> via_slots;
      ForEachCommonSlot(g, u, v, [&](uint32_t su, uint32_t sv) {
        EXPECT_GE(su, offsets[u]);
        EXPECT_LT(su, offsets[u + 1]);
        EXPECT_GE(sv, offsets[v]);
        EXPECT_LT(sv, offsets[v + 1]);
        EXPECT_EQ(adj[su], adj[sv]);
        via_slots.push_back(adj[su]);
      });
      const std::vector<VertexId> nu(g.Neighbors(u).begin(),
                                     g.Neighbors(u).end());
      const std::vector<VertexId> nv(g.Neighbors(v).begin(),
                                     g.Neighbors(v).end());
      EXPECT_EQ(via_slots, OracleIntersect(nu, nv)) << u << " " << v;
    }
  }
}

TEST(IntersectGraphApiTest, ThreeWayCallbackMatchesOracleAndCount) {
  // Star-of-cliques: vertex 0 is a hub adjacent to everyone — the 3-way
  // lagging-pointer restructure must handle the hub run staying at the
  // frontier while leaf runs gallop.
  GraphBuilder builder(64);
  for (VertexId v = 1; v < 64; ++v) builder.AddEdge(0, v);
  for (VertexId base = 1; base + 4 <= 64; base += 4) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
  }
  const Graph g = builder.Build();
  for (VertexId a = 0; a < 16; ++a) {
    for (VertexId b = a + 1; b < 16; ++b) {
      for (VertexId c = b + 1; c < 16; ++c) {
        std::vector<VertexId> na(g.Neighbors(a).begin(),
                                 g.Neighbors(a).end());
        std::vector<VertexId> nb(g.Neighbors(b).begin(),
                                 g.Neighbors(b).end());
        std::vector<VertexId> nc(g.Neighbors(c).begin(),
                                 g.Neighbors(c).end());
        const std::vector<uint32_t> oracle = OracleIntersect3(na, nb, nc);
        std::vector<VertexId> via_callback;
        ForEachCommonNeighbor(g, a, b, c, [&](VertexId d) {
          via_callback.push_back(d);
        });
        EXPECT_EQ(oracle, via_callback);
        EXPECT_EQ(oracle.size(), CountCommonNeighbors(g, a, b, c));
      }
    }
  }
}

// Per-edge oracle: for every edge {u, v} with u < v, each common
// neighbour w > v closes one triangle, found once.
void OracleTriangles(const Graph& g, uint64_t* total,
                     std::vector<uint32_t>* per_vertex) {
  *total = 0;
  per_vertex->assign(g.NumVertices(), 0);
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (v <= u) continue;
      std::vector<VertexId> common;
      std::set_intersection(g.Neighbors(u).begin(), g.Neighbors(u).end(),
                            g.Neighbors(v).begin(), g.Neighbors(v).end(),
                            std::back_inserter(common));
      for (const VertexId w : common) {
        if (w <= v) continue;
        ++*total;
        ++(*per_vertex)[u];
        ++(*per_vertex)[v];
        ++(*per_vertex)[w];
      }
    }
  }
}

TEST(IntersectMetricsTest, TriangleCountsMatchBruteForceOracle) {
  // The mark passes of metrics/triangles.cc, at one lane and at several
  // lanes over many small blocks, on sparse, dense, hub-heavy and
  // degenerate inputs.
  std::vector<Graph> graphs;
  Rng rng(13);
  graphs.push_back(BarabasiAlbert(96, 4, &rng));
  Rng ba_rng(31);
  graphs.push_back(BarabasiAlbert(1 << 10, 5, &ba_rng));
  CollaborationOptions collab_options;
  collab_options.num_vertices = 1 << 10;
  collab_options.num_groups = 1 << 9;
  collab_options.num_planted_cores = 2;
  collab_options.planted_core_size = 16;
  Rng collab_rng(5);
  graphs.push_back(CollaborationNetwork(collab_options, &collab_rng));
  // K_8 whose vertex 0 is also a hub over 200 leaves.
  const size_t k8_hub = graphs.size();
  GraphBuilder hub(208);
  for (VertexId a = 0; a < 8; ++a) {
    for (VertexId b = a + 1; b < 8; ++b) hub.AddEdge(a, b);
  }
  for (VertexId leaf = 8; leaf < 208; ++leaf) hub.AddEdge(0, leaf);
  graphs.push_back(hub.Build());
  Rng er_rng(17);
  graphs.push_back(ErdosRenyi(300, 0.01, &er_rng));
  bool has_isolated = false;
  for (VertexId v = 0; v < graphs.back().NumVertices(); ++v) {
    has_isolated |= graphs.back().Degree(v) == 0;
  }
  ASSERT_TRUE(has_isolated);
  graphs.push_back(GraphBuilder(0).Build());
  graphs.push_back(GraphBuilder(1).Build());
  GraphBuilder pair(2);
  pair.AddEdge(0, 1);
  graphs.push_back(pair.Build());

  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    uint64_t oracle = 0;
    std::vector<uint32_t> oracle_per_vertex;
    OracleTriangles(g, &oracle, &oracle_per_vertex);
    if (i == k8_hub) {
      EXPECT_EQ(56u, oracle);  // C(8, 3); the leaves close none
    }
    for (const ParallelOptions options :
         {ParallelOptions{1, 0}, ParallelOptions{2, 7},
          ParallelOptions{4, 7}}) {
      EXPECT_EQ(oracle, CountTriangles(g, options))
          << "graph " << i << " threads " << options.num_threads;
      EXPECT_EQ(oracle_per_vertex, VertexTriangleCounts(g, options))
          << "graph " << i << " threads " << options.num_threads;
    }
  }
}

}  // namespace
}  // namespace graphscape
