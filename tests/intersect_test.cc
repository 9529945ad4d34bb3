// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Differential suite for the sorted-run intersection layer
// (graph/intersect.h): the merge and gallop walks and Count must agree
// with a brute-force oracle and with each other, on counts, on emitted
// elements, AND on emission order, across 10k seeded adversarial run
// pairs (empty, disjoint, identical, 1:4096 skew, all-ties, lengths 0/1),
// and the gallop over {vertex, id} records with lower_bound. The triangle
// mark passes, which share no code with this layer, are pinned here
// against a per-edge std::set_intersection oracle. The suite runs under
// ASan/UBSan and TSan via the regular CI matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

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

TEST(IntersectDifferentialTest, GallopSeekOverRecordsMatchesLowerBound) {
  // The nucleus peel gallops through runs of {vertex, id} records keyed
  // by vertex: every (start, target) pair must land where lower_bound
  // does, including targets below, between, on and past every key.
  struct Record {
    uint32_t w;
    uint32_t id;
  };
  Rng rng(31);
  for (const uint32_t len : {0u, 1u, 2u, 7u, 64u, 300u}) {
    const std::vector<uint32_t> keys = MakeRun(len, 4 * len + 1, &rng);
    std::vector<Record> run;
    for (const uint32_t w : keys) {
      run.push_back({w, static_cast<uint32_t>(run.size())});
    }
    const Record* const begin = run.data();
    const Record* const end = begin + run.size();
    const auto key = [](const Record& r) { return r.w; };
    for (size_t first = 0; first <= run.size(); ++first) {
      for (uint32_t target = 0; target <= 4 * len + 2; ++target) {
        const Record* expected = std::lower_bound(
            begin + first, end, target,
            [](const Record& r, uint32_t t) { return r.w < t; });
        EXPECT_EQ(expected, intersect::detail::GallopSeek(begin + first, end,
                                                          target, key))
            << "len " << len << " first " << first << " target " << target;
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
    EXPECT_EQ(oracle, CountTriangles(g)) << "graph " << i;
    EXPECT_EQ(oracle_per_vertex, VertexTriangleCounts(g)) << "graph " << i;
  }
}

}  // namespace
}  // namespace graphscape
