// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Algorithm 1 correctness on the paper's small hand-computable examples.
// Orientation reminder (superlevel sweep): values are non-increasing
// toward the root, leaves are local maxima, each component's root is its
// sweep-order minimum.

#include "scalar/scalar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "scalar/tree_core.h"

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

// Each vertex v becomes n - 1 - v: a star's hub, or a Barabasi-Albert
// graph's oldest vertices, get the largest ids, so the graph's degree
// order (Graph::ByDegree) runs against id order.
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

TEST(ScalarTreeTest, MonotonePathIsAChain) {
  const Graph g = Path(5);
  const VertexScalarField field("f", {1.0, 2.0, 3.0, 4.0, 5.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  ASSERT_EQ(tree.NumNodes(), 5u);
  EXPECT_EQ(tree.Parent(4), 3u);
  EXPECT_EQ(tree.Parent(3), 2u);
  EXPECT_EQ(tree.Parent(2), 1u);
  EXPECT_EQ(tree.Parent(1), 0u);
  EXPECT_EQ(tree.Parent(0), kInvalidVertex);
  EXPECT_EQ(tree.NumRoots(), 1u);
}

TEST(ScalarTreeTest, StarWithLowCenterFansIn) {
  // Leaves are all local maxima; the low-valued hub is the root.
  const Graph g = Star(4);
  const VertexScalarField field("f", {0.0, 1.0, 2.0, 3.0, 4.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  for (VertexId v = 1; v <= 4; ++v) EXPECT_EQ(tree.Parent(v), 0u);
  EXPECT_EQ(tree.Parent(0), kInvalidVertex);
}

TEST(ScalarTreeTest, StarWithHighCenterIsAChain) {
  // Only the hub is a local maximum; leaves chain through it in value
  // order because each leaf's component head moves down the sweep.
  const Graph g = Star(4);
  const VertexScalarField field("f", {10.0, 1.0, 2.0, 3.0, 4.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  EXPECT_EQ(tree.Parent(0), 4u);
  EXPECT_EQ(tree.Parent(4), 3u);
  EXPECT_EQ(tree.Parent(3), 2u);
  EXPECT_EQ(tree.Parent(2), 1u);
  EXPECT_EQ(tree.Parent(1), kInvalidVertex);
}

TEST(ScalarTreeTest, TwoPeakPathMergesAtTheSaddleSweep) {
  // Path 0-1-2-3-4 with peaks at vertices 1 and 3: both are leaves
  // (local maxima); the saddle vertex 2 merges their components, and the
  // component minimum (vertex 0) is the root.
  const Graph g = Path(5);
  const VertexScalarField field("f", {1.0, 5.0, 2.0, 6.0, 3.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  EXPECT_EQ(tree.Parent(3), 4u);
  EXPECT_EQ(tree.Parent(1), 2u);
  EXPECT_EQ(tree.Parent(4), 2u);
  EXPECT_EQ(tree.Parent(2), 0u);
  EXPECT_EQ(tree.Parent(0), kInvalidVertex);
  EXPECT_EQ(tree.NumRoots(), 1u);
}

TEST(ScalarTreeTest, DuplicateValuesTieBreakById) {
  // A constant field must still produce a deterministic chain: the id
  // tie-break makes vertex ids the sweep order.
  const Graph g = Path(4);
  const VertexScalarField field("f", {7.0, 7.0, 7.0, 7.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  EXPECT_EQ(tree.Parent(0), 1u);
  EXPECT_EQ(tree.Parent(1), 2u);
  EXPECT_EQ(tree.Parent(2), 3u);
  EXPECT_EQ(tree.Parent(3), kInvalidVertex);
}

TEST(ScalarTreeTest, DisconnectedGraphYieldsForest) {
  // Components {0,1} and {2,3}; each gets its own root at its minimum.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 3);
  const Graph g = builder.Build();
  const VertexScalarField field("f", {1.0, 2.0, 4.0, 3.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  EXPECT_EQ(tree.Parent(1), 0u);
  EXPECT_EQ(tree.Parent(0), kInvalidVertex);
  EXPECT_EQ(tree.Parent(2), 3u);
  EXPECT_EQ(tree.Parent(3), kInvalidVertex);
  EXPECT_EQ(tree.NumRoots(), 2u);
}

TEST(ScalarTreeTest, IsolatedVertexIsItsOwnRoot) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  const VertexScalarField field("f", {1.0, 2.0, 5.0});
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  EXPECT_EQ(tree.Parent(2), kInvalidVertex);
  EXPECT_EQ(tree.NumRoots(), 2u);
}

TEST(ScalarTreeTest, FieldRejectsNonFiniteValues) {
  // NaN would break the sort's strict weak ordering (UB in std::sort) and
  // infinities break quantization, so the field guards at construction.
  const std::vector<double> with_nan{1.0, std::nan(""), 2.0};
  EXPECT_THROW(VertexScalarField("f", with_nan), std::invalid_argument);
  const std::vector<double> with_inf{1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(VertexScalarField("f", with_inf), std::invalid_argument);
}

TEST(ScalarTreeTest, RandomGraphsSatisfyTreeInvariants) {
  // Property check over random graphs and fields: values non-increasing
  // toward the root, exactly one root per connected component, and the
  // sweep order lists every child before its parent.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const Graph g = BarabasiAlbert(400, 3, &rng);
    std::vector<double> values(g.NumVertices());
    for (auto& v : values) v = static_cast<double>(rng.UniformInt(17));
    const VertexScalarField field("f", values);
    const ScalarTree tree = BuildVertexScalarTree(g, field);

    ASSERT_EQ(tree.NumNodes(), g.NumVertices());
    EXPECT_EQ(tree.NumRoots(), 1u);  // BA graphs are connected
    std::vector<uint32_t> position(g.NumVertices());
    for (uint32_t i = 0; i < g.NumVertices(); ++i)
      position[tree.SweepOrder()[i]] = i;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const VertexId p = tree.Parent(v);
      if (p == kInvalidVertex) continue;
      EXPECT_LE(tree.Value(p), tree.Value(v));
      EXPECT_GT(position[p], position[v]);
    }
  }
}

// Checks SortSweepOrder against a comparator sort by (value desc, id
// asc).
void ExpectSweepOrderMatchesOracle(const std::vector<double>& values,
                                   const char* label,
                                   std::vector<uint32_t>* order) {
  const uint32_t n = static_cast<uint32_t>(values.size());
  std::vector<uint32_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0u);
  std::sort(expected.begin(), expected.end(), [&values](uint32_t a,
                                                        uint32_t b) {
    const double fa = values[a], fb = values[b];
    return fa > fb || (fa == fb && a < b);
  });
  tree_core::SortSweepOrder(values, order);
  EXPECT_EQ(*order, expected) << label;
}

TEST(SweepOrderTest, MatchesComparatorOracle) {
  constexpr uint32_t kCount = 40000;
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  Rng rng(123);
  // Reused across cases, largest first, so every call overwrites stale
  // contents of a longer previous result.
  std::vector<uint32_t> order;

  std::vector<double> uniform(kCount);
  for (double& v : uniform) v = rng.UniformDouble();
  ExpectSweepOrderMatchesOracle(uniform, "uniform doubles", &order);

  std::vector<double> ties(kCount);
  for (double& v : ties) v = static_cast<double>(rng.UniformInt(97));
  ExpectSweepOrderMatchesOracle(ties, "UniformInt(97)", &order);

  std::vector<double> negatives(kCount);
  for (double& v : negatives) {
    v = rng.UniformInt(2) == 0 ? -static_cast<double>(rng.UniformInt(50))
                               : (rng.UniformDouble() - 0.5) * 1e6;
  }
  ExpectSweepOrderMatchesOracle(negatives, "negatives", &order);

  // +0.0 and -0.0 compare equal, so they must tie by id.
  const double signed_zeros_pool[] = {0.0, -0.0, 1.0, -1.0};
  std::vector<double> zeros(kCount);
  for (double& v : zeros) v = signed_zeros_pool[rng.UniformInt(4)];
  ExpectSweepOrderMatchesOracle(zeros, "signed zeros", &order);

  const double extremes_pool[] = {kMax,        -kMax,       kDenorm,
                                  -kDenorm,    2 * kDenorm, kMinNormal,
                                  -kMinNormal, 0.0,         -0.0,
                                  1e-310,      -1e-310,     1.0};
  std::vector<double> extremes(kCount);
  for (double& v : extremes) v = extremes_pool[rng.UniformInt(12)];
  ExpectSweepOrderMatchesOracle(extremes, "subnormals and DBL_MAX", &order);

  // Values a few ulps apart: only the lowest mantissa bits differ.
  std::vector<double> ulps(kCount);
  for (double& v : ulps) {
    const double base = rng.UniformInt(2) == 0 ? 1.0 : -1.0;
    v = base;
    for (uint32_t k = rng.UniformInt(8); k > 0; --k) {
      v = std::nextafter(v, 2 * base);
    }
  }
  ExpectSweepOrderMatchesOracle(ulps, "lowest mantissa bit", &order);

  ExpectSweepOrderMatchesOracle(std::vector<double>(1000, 2.5),
                                "all values equal", &order);
  ExpectSweepOrderMatchesOracle({-3.0}, "n = 1", &order);
  ExpectSweepOrderMatchesOracle({}, "n = 0", &order);
}

// Oracle for Algorithm 1's sweep: the rank-array form the library used
// before its swept bitmap. rank[v] is v's position in a comparator sort
// by (value desc, id asc); a neighbour u of w is already swept iff
// rank[u] < rank[w]. Roots are counted by a scan over the parents.
struct SweepOracle {
  std::vector<VertexId> order;
  std::vector<VertexId> parents;
  uint32_t num_roots = 0;
};

SweepOracle RankArraySweep(const Graph& g, const std::vector<double>& values) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&values](uint32_t a, uint32_t b) {
    return values[a] > values[b] || (values[a] == values[b] && a < b);
  });
  std::vector<uint32_t> rank(n);
  for (uint32_t k = 0; k < n; ++k) rank[order[k]] = k;

  std::vector<uint32_t> uf(n), comp_size(n, 1), head(n);
  std::iota(uf.begin(), uf.end(), 0u);
  std::iota(head.begin(), head.end(), 0u);
  SweepOracle out;
  out.parents.assign(n, kInvalidVertex);
  for (uint32_t k = 0; k < n; ++k) {
    const VertexId w = order[k];
    uint32_t rw = tree_core::Find(uf.data(), w);
    for (const VertexId u : g.Neighbors(w)) {
      if (rank[u] >= k) continue;
      const uint32_t ru = tree_core::Find(uf.data(), u);
      if (ru == rw) continue;
      rw = tree_core::AttachAndUnion(ru, rw, w, uf.data(), comp_size.data(),
                                     head.data(), out.parents.data());
    }
  }
  for (const VertexId p : out.parents) {
    if (p == kInvalidVertex) ++out.num_roots;
  }
  out.order = std::move(order);
  return out;
}

// Two random components on ids 0 and 1 mod 3; ids 2 mod 3 are isolated.
Graph DisconnectedWithIsolated(uint32_t n, Rng* rng) {
  GraphBuilder builder(n);
  for (uint32_t i = 0; i < 3 * n; ++i) {
    const VertexId u = static_cast<VertexId>(rng->UniformInt(n));
    const VertexId v = static_cast<VertexId>(rng->UniformInt(n));
    if (u % 3 != 2 && u % 3 == v % 3) builder.AddEdge(u, v);
  }
  return builder.Build();
}

void ExpectSweepMatchesRankOracle(const Graph& g,
                                  const std::vector<double>& values,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  const SweepOracle oracle = RankArraySweep(g, values);
  const ScalarTree tree =
      BuildVertexScalarTree(g, VertexScalarField("f", values));
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(tree.Parent(v), oracle.parents[v]) << "vertex " << v;
  }
  EXPECT_EQ(tree.SweepOrder(), oracle.order);
  EXPECT_EQ(tree.NumRoots(), oracle.num_roots);
}

TEST(ScalarTreeTest, SweptBitmapMatchesRankOracle) {
  // Sizes cross the bitmap's 64-bit word boundaries.
  for (const uint32_t n : {1u, 63u, 64u, 65u, 129u, 400u}) {
    Rng rng(n);
    std::vector<std::pair<std::string, Graph>> graphs;
    if (n > 3) {
      graphs.emplace_back("BA", BarabasiAlbert(n, 3, &rng));
      graphs.emplace_back("reversed BA",
                          Reversed(BarabasiAlbert(n, 3, &rng)));
    }
    graphs.emplace_back("ER", ErdosRenyi(n, std::min(1.0, 4.0 / n), &rng));
    graphs.emplace_back("disconnected", DisconnectedWithIsolated(n, &rng));
    for (const auto& [name, g] : graphs) {
      ASSERT_EQ(g.NumVertices(), n);
      const std::string label = name + " n=" + std::to_string(n);
      std::vector<double> plateau(n), distinct(n);
      for (double& v : plateau) v = static_cast<double>(rng.UniformInt(5));
      std::iota(distinct.begin(), distinct.end(), 0.0);
      for (uint32_t i = n; i > 1; --i) {
        std::swap(distinct[i - 1], distinct[rng.UniformInt(i)]);
      }
      ExpectSweepMatchesRankOracle(g, std::vector<double>(n, 2.0),
                                   label + " constant");
      ExpectSweepMatchesRankOracle(g, plateau, label + " plateau");
      ExpectSweepMatchesRankOracle(g, distinct, label + " distinct");
    }
  }

  // Two-peak path: the peaks' components merge at a saddle mid-path.
  std::vector<double> two_peak(257);
  for (uint32_t v = 0; v < 257; ++v) {
    const double a = 100.0 - std::abs(60.0 - static_cast<double>(v));
    const double b = 95.0 - std::abs(190.0 - static_cast<double>(v));
    two_peak[v] = std::max(a, b);
  }
  ExpectSweepMatchesRankOracle(Path(257), two_peak, "two-peak path");
  Rng rng(9);
  std::vector<double> star_distinct(65), star_plateau(65);
  for (double& v : star_distinct) v = rng.UniformDouble();
  for (double& v : star_plateau) v = static_cast<double>(rng.UniformInt(3));
  ExpectSweepMatchesRankOracle(Star(64), star_distinct, "star distinct");
  ExpectSweepMatchesRankOracle(Star(64), star_plateau, "star plateau");
  const Graph last_hub = Reversed(Star(64));  // the hub is vertex 64
  ExpectSweepMatchesRankOracle(last_hub, star_distinct, "last-hub distinct");
  ExpectSweepMatchesRankOracle(last_hub, star_plateau, "last-hub plateau");
  ExpectSweepMatchesRankOracle(last_hub, std::vector<double>(65, 1.0),
                               "last-hub constant");
  ExpectSweepMatchesRankOracle(GraphBuilder(0).Build(), {}, "empty graph");
  ExpectSweepMatchesRankOracle(Path(3), {1.0, 3.0, 2.0}, "3-vertex path");
}

}  // namespace
}  // namespace graphscape
