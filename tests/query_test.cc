// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Oracle-grade coverage for the query layer: the attribute table's
// accessors and column-to-field bridge, and the NN graph checked against
// an exact O(n^2) oracle at small n plus its structural invariants
// (simple, symmetric, bounded nominations, threshold respected).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/graph_algos.h"
#include "query/nn_graph.h"
#include "query/table.h"
#include "scalar/tree_io.h"

namespace graphscape {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

Table RandomTable(size_t rows, uint32_t columns, uint64_t seed) {
  Rng rng(seed);
  Table table(rows);
  for (uint32_t c = 0; c < columns; ++c) {
    std::vector<double> values(rows);
    // Coarse quantization forces plenty of exact ties.
    for (auto& v : values) v = std::floor(10.0 * rng.UniformDouble()) / 2.0;
    table.AddColumn("col" + std::to_string(c), std::move(values));
  }
  return table;
}

TEST(TableTest, BasicAccessorsAndValidation) {
  Table table(3);
  const uint32_t a = table.AddColumn("alpha", {1.0, 2.0, 3.0});
  const uint32_t b = table.AddColumn("beta", {6.0, 5.0, 4.0});
  EXPECT_EQ(table.NumRows(), 3u);
  EXPECT_EQ(table.NumColumns(), 2u);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_DOUBLE_EQ(table.Value(1, b), 5.0);
  EXPECT_EQ(table.ColumnName(0), "alpha");
  EXPECT_EQ(table.FindColumn("beta"), 1u);
  EXPECT_EQ(table.FindColumn("missing"), kNoColumn);
  EXPECT_EQ(table.Label(0), "");  // labels unset
  table.SetLabels({"x", "y", "z"});
  EXPECT_EQ(table.Label(2), "z");
  EXPECT_THROW(table.AddColumn("short", {1.0}), std::invalid_argument);
  EXPECT_THROW(table.SetLabels({"only-one"}), std::invalid_argument);
}

TEST(TableTest, AddFieldKeepsNameAndValues) {
  const VertexScalarField field("kcore", {3.0, 1.0, 2.0});
  Table table(3);
  const uint32_t c = table.AddField(field);
  EXPECT_EQ(table.ColumnName(c), "kcore");
  EXPECT_EQ(table.Column(c), field.Values());
}

TEST(ColumnAsFieldTest, NamesValuesAndRejectsNan) {
  Table table(3);
  table.AddColumn("height", {1.0, 2.0, 3.0});
  table.AddColumn("broken", {1.0, kNan, 3.0});
  const VertexScalarField field = ColumnAsField(table, 0);
  EXPECT_EQ(field.Name(), "height");
  EXPECT_EQ(field.Values(), table.Column(0));
  EXPECT_THROW(ColumnAsField(table, 1), std::invalid_argument);
}

// --------------------------------------------------------------- NN graph --

/// Exact oracle: the same nomination rule, written independently over
/// all pairs — (distance, id)-sorted, thresholded, capped, unioned.
std::set<std::pair<uint32_t, uint32_t>> OracleEdges(
    const Table& table, const NnGraphOptions& options) {
  const uint32_t n = static_cast<uint32_t>(table.NumRows());
  std::vector<std::vector<double>> points(n);
  std::vector<uint32_t> columns = options.columns;
  if (columns.empty())
    for (uint32_t c = 0; c < table.NumColumns(); ++c) columns.push_back(c);
  for (uint32_t row = 0; row < n; ++row)
    for (const uint32_t c : columns) {
      double x = table.Value(row, c);
      if (options.normalize) {
        double mean = 0.0, var = 0.0;
        for (uint32_t r = 0; r < n; ++r) mean += table.Value(r, c);
        mean /= n;
        for (uint32_t r = 0; r < n; ++r) {
          const double delta = table.Value(r, c) - mean;
          var += delta * delta;
        }
        const double stddev = var > 0.0 ? std::sqrt(var / n) : 1.0;
        x = (x - mean) / stddev;
      }
      points[row].push_back(x);
    }
  std::set<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t u = 0; u < n; ++u) {
    std::vector<std::pair<double, uint32_t>> candidates;
    for (uint32_t v = 0; v < n; ++v) {
      if (v == u) continue;
      double dist = 0.0;
      for (size_t f = 0; f < points[u].size(); ++f) {
        const double x = points[u][f] - points[v][f];
        dist += x * x;
      }
      dist = std::sqrt(dist);
      if (dist <= options.distance_threshold)
        candidates.push_back({dist, v});
    }
    std::sort(candidates.begin(), candidates.end());
    for (size_t s = 0;
         s < std::min<size_t>(candidates.size(), options.max_neighbors); ++s)
      edges.insert({std::min(u, candidates[s].second),
                    std::max(u, candidates[s].second)});
  }
  return edges;
}

std::set<std::pair<uint32_t, uint32_t>> GraphEdges(const Graph& g) {
  std::set<std::pair<uint32_t, uint32_t>> edges;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) edges.insert(g.EdgeEndpoints(e));
  return edges;
}

TEST(NnGraphTest, MatchesExactOracleAtSmallN) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const Table table = RandomTable(40, 3, seed);
    NnGraphOptions options;
    options.max_neighbors = 4;
    options.distance_threshold = 2.0;
    options.normalize = false;
    const Graph g = BuildNnGraph(table, options);
    EXPECT_EQ(GraphEdges(g), OracleEdges(table, options)) << "seed " << seed;
  }
}

TEST(NnGraphTest, NormalizedDistanceMatchesOracle) {
  const Table table = RandomTable(30, 2, 5);
  NnGraphOptions options;
  options.max_neighbors = 3;
  options.normalize = true;
  const Graph g = BuildNnGraph(table, options);
  EXPECT_EQ(GraphEdges(g), OracleEdges(table, options));
}

TEST(NnGraphTest, SimpleSymmetricAndThresholded) {
  const Table table = RandomTable(60, 2, 9);
  NnGraphOptions options;
  options.max_neighbors = 5;
  options.distance_threshold = 1.5;
  options.normalize = false;
  const Graph g = BuildNnGraph(table, options);
  EXPECT_EQ(g.NumVertices(), 60u);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.EdgeEndpoints(e);
    EXPECT_NE(u, v) << "self loop";
    EXPECT_TRUE(g.HasEdge(u, v));
    EXPECT_TRUE(g.HasEdge(v, u)) << "missing reverse adjacency";
    double dist = 0.0;
    for (uint32_t c = 0; c < 2; ++c) {
      const double x = table.Value(u, c) - table.Value(v, c);
      dist += x * x;
    }
    EXPECT_LE(std::sqrt(dist), 1.5) << "edge beyond the threshold";
  }
}

TEST(NnGraphTest, ColumnSubsetScalingAndNormalization) {
  // Scaling one column by 1000 changes nothing under normalize=true.
  Rng rng(21);
  std::vector<double> a(25), b(25);
  for (auto& x : a) x = rng.UniformDouble();
  for (auto& x : b) x = rng.UniformDouble();
  Table plain(25), scaled(25);
  plain.AddColumn("a", a);
  plain.AddColumn("b", b);
  for (auto& x : b) x *= 1000.0;
  scaled.AddColumn("a", a);
  scaled.AddColumn("b", b);
  NnGraphOptions options;
  options.max_neighbors = 3;
  EXPECT_EQ(GraphEdges(BuildNnGraph(plain, options)),
            GraphEdges(BuildNnGraph(scaled, options)));
  // Restricting to one column ignores the other entirely.
  NnGraphOptions only_a = options;
  only_a.columns = {0};
  Table just_a(25);
  just_a.AddColumn("a", a);
  EXPECT_EQ(GraphEdges(BuildNnGraph(scaled, only_a)),
            GraphEdges(BuildNnGraph(just_a, options)));
}

TEST(NnGraphTest, ThresholdSeparatesFarClusters) {
  // Two tight value clusters 100 apart: no cross edges, two components.
  Table table(20);
  std::vector<double> x(20);
  for (uint32_t row = 0; row < 20; ++row)
    x[row] = (row < 10 ? 0.0 : 100.0) + 0.1 * row;
  table.AddColumn("x", std::move(x));
  NnGraphOptions options;
  options.normalize = false;
  options.distance_threshold = 5.0;
  const Graph g = BuildNnGraph(table, options);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.EdgeEndpoints(e);
    EXPECT_EQ(u < 10, v < 10) << "edge crossed the gap";
  }
  EXPECT_EQ(ConnectedComponents(g).num_components, 2u);
}

TEST(NnGraphTest, DegenerateInputs) {
  Table empty(0);
  empty.AddColumn("x", {});
  EXPECT_EQ(BuildNnGraph(empty).NumVertices(), 0u);
  Table single(1);
  single.AddColumn("x", {1.0});
  const Graph g = BuildNnGraph(single);
  EXPECT_EQ(g.NumVertices(), 1u);
  EXPECT_EQ(g.NumEdges(), 0u);
  // All-identical rows: distances 0, ties resolved by id — still simple.
  Table ties(5);
  ties.AddColumn("x", {2.0, 2.0, 2.0, 2.0, 2.0});
  NnGraphOptions options;
  options.max_neighbors = 2;
  const Graph tie_graph = BuildNnGraph(ties, options);
  EXPECT_EQ(GraphEdges(tie_graph), OracleEdges(ties, options));
}

TEST(NnGraphTest, RepeatBuildsAreIdentical) {
  const Table table = RandomTable(50, 2, 33);
  NnGraphOptions options;
  options.max_neighbors = 4;
  const Graph a = BuildNnGraph(table, options);
  const Graph b = BuildNnGraph(table, options);
  EXPECT_EQ(a.Adjacency(), b.Adjacency());
  EXPECT_EQ(a.Offsets(), b.Offsets());
}

TEST(NnGraphTest, EdgesArePinned) {
  // The fig 11 NN graph, byte for byte: FNV-1a over the CSR offsets
  // followed by the adjacency.
  Rng rng(11);
  const Table table = MakePlantGenusTable(120, &rng);
  NnGraphOptions options;
  options.normalize = false;
  options.distance_threshold = 2.5;
  options.max_neighbors = 8;
  const Graph g = BuildNnGraph(table, options);
  std::string bytes(reinterpret_cast<const char*>(g.Offsets().data()),
                    g.Offsets().size() * sizeof(uint32_t));
  bytes.append(reinterpret_cast<const char*>(g.Adjacency().data()),
               g.Adjacency().size() * sizeof(VertexId));
  EXPECT_EQ(Fnv1aChecksum(bytes), 0xf232272c52a2eca7ull);
}

TEST(PlantGenusTableTest, BandsLabelsAndDeterminism) {
  Rng rng(11);
  const Table table = MakePlantGenusTable(120, &rng);
  EXPECT_EQ(table.NumRows(), 120u);
  EXPECT_EQ(table.NumColumns(), 2u);
  for (uint32_t row = 0; row < 120; ++row) {
    const std::string& label = table.Label(row);
    const double attr0 = table.Value(row, 0);
    if (label == "genusA") {
      EXPECT_GE(attr0, 2.0);
      EXPECT_LE(attr0, 3.2);
    } else if (label == "genusB") {
      EXPECT_GE(attr0, 3.8);
      EXPECT_LE(attr0, 5.0);
    } else {
      EXPECT_EQ(label, "genusC");
      EXPECT_GE(attr0, 8.5);
      EXPECT_LE(attr0, 9.5);
    }
    EXPECT_GE(table.Value(row, 1), 4.0);
    EXPECT_LE(table.Value(row, 1), 6.0);
  }
  Rng rng2(11);
  const Table again = MakePlantGenusTable(120, &rng2);
  EXPECT_EQ(table.Column(0), again.Column(0));
  EXPECT_EQ(table.Column(1), again.Column(1));
}

}  // namespace
}  // namespace graphscape
