// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/scalar_tree.h"

namespace graphscape {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder;
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphBuilderTest, PacksTriangleIntoCsr) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphBuilderTest, DropsSelfLoopsAndDuplicates) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);  // duplicate, reversed
  builder.AddEdge(0, 1);  // duplicate
  builder.AddEdge(2, 2);  // self-loop
  builder.AddEdge(2, 3);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(2), 1u);
}

TEST(GraphBuilderTest, GrowsVertexCountFromEndpoints) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 7);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumVertices(), 8u);
  EXPECT_EQ(g.Degree(5), 0u);
}

TEST(GraphTest, NeighborsAreSortedAscending) {
  GraphBuilder builder(5);
  builder.AddEdge(2, 4);
  builder.AddEdge(2, 0);
  builder.AddEdge(2, 3);
  builder.AddEdge(2, 1);
  const Graph g = builder.Build();
  const Graph::NeighborRange r = g.Neighbors(2);
  ASSERT_EQ(r.size(), 4u);
  for (uint32_t i = 0; i + 1 < r.size(); ++i) EXPECT_LT(r[i], r[i + 1]);
}

TEST(GraphTest, EdgeEndpointsFollowEdgeListOrder) {
  GraphBuilder builder(4);
  builder.AddEdge(2, 1);
  builder.AddEdge(3, 0);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  // EdgeList order: ascending smaller endpoint, then larger.
  ASSERT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.EdgeEndpoints(0), (std::pair<VertexId, VertexId>{0, 1}));
  EXPECT_EQ(g.EdgeEndpoints(1), (std::pair<VertexId, VertexId>{0, 3}));
  EXPECT_EQ(g.EdgeEndpoints(2), (std::pair<VertexId, VertexId>{1, 2}));
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.EdgeEndpoints(e);
    EXPECT_LT(u, v);
    EXPECT_TRUE(g.HasEdge(u, v));
  }
}

// Each vertex v becomes n - 1 - v, so a Barabasi-Albert graph's hubs,
// its oldest vertices, get the largest ids.
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

// A star whose hub has the largest id, plus a pendant path, so that ties
// and a degree order unlike id order both occur.
Graph StarWithLastHub(uint32_t leaves) {
  GraphBuilder builder(leaves + 1);
  for (VertexId v = 0; v < leaves; ++v) builder.AddEdge(v, leaves);
  builder.AddEdge(0, 1);
  return builder.Build();
}

void ExpectDegreeOrder(const Graph& g) {
  const uint32_t n = g.NumVertices();
  const Graph::DegreeOrder& view = g.ByDegree();
  ASSERT_EQ(view.rank.size(), n);
  ASSERT_EQ(view.offsets.size(), n + 1u);
  ASSERT_EQ(view.adjacency.size(), g.Adjacency().size());
  std::vector<VertexId> at(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_LT(view.rank[v], n);
    ASSERT_EQ(at[view.rank[v]], kInvalidVertex) << "rank is not a permutation";
    at[view.rank[v]] = v;
  }
  for (uint32_t p = 0; p + 1 < n; ++p) {
    const VertexId a = at[p], b = at[p + 1];
    EXPECT_TRUE(g.Degree(a) > g.Degree(b) ||
                (g.Degree(a) == g.Degree(b) && a < b))
        << "positions " << p << " and " << p + 1;
  }
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t p = view.rank[v];
    ASSERT_EQ(view.offsets[p + 1] - view.offsets[p], g.Degree(v));
    const uint32_t* const run = view.adjacency.data() + view.offsets[p];
    std::vector<uint32_t> expected;
    for (const VertexId u : g.Neighbors(v)) expected.push_back(view.rank[u]);
    EXPECT_EQ(std::vector<uint32_t>(run, run + g.Degree(v)), expected)
        << "vertex " << v;
  }
}

TEST(GraphTest, DegreeOrderRanksByDescendingDegreeThenId) {
  ExpectDegreeOrder(StarWithLastHub(9));
  EXPECT_EQ(StarWithLastHub(9).ByDegree().rank[9], 0u);
  Rng rng(3);
  ExpectDegreeOrder(Reversed(BarabasiAlbert(300, 3, &rng)));
  ExpectDegreeOrder(GraphBuilder(5).Build());  // isolated vertices only
  ExpectDegreeOrder(Graph());
}

// Everything a graph's first-use structures feed: the K-Core numbers,
// Algorithm 1 on them (a plateau field) and the K-Truss numbers, which
// read the edge-endpoint arrays.
struct FirstUseOutputs {
  std::vector<uint32_t> core;
  std::vector<VertexId> parents;
  std::vector<VertexId> order;
  std::vector<uint32_t> truss;

  bool operator==(const FirstUseOutputs& o) const {
    return core == o.core && parents == o.parents && order == o.order &&
           truss == o.truss;
  }
};

FirstUseOutputs Outputs(const Graph& g) {
  FirstUseOutputs out;
  out.core = CoreNumbers(g);
  const ScalarTree tree =
      BuildVertexScalarTree(g, VertexScalarField::FromCounts("KC", out.core));
  out.parents = tree.Parents();
  out.order = tree.SweepOrder();
  out.truss = TrussNumbers(g);
  return out;
}

Graph TestGraph() {
  Rng rng(11);
  return Reversed(BarabasiAlbert(2000, 4, &rng));
}

TEST(GraphTest, FirstUseStructuresAgreeAcrossThreads) {
  // Four threads race to build one fresh graph's degree-order view and
  // endpoint arrays; every one must see them complete.
  const FirstUseOutputs expected = Outputs(TestGraph());
  const Graph g = TestGraph();
  std::vector<FirstUseOutputs> got(4);
  std::vector<std::thread> threads;
  for (FirstUseOutputs& out : got) {
    threads.emplace_back([&g, &out] { out = Outputs(g); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const FirstUseOutputs& out : got) EXPECT_TRUE(out == expected);
}

TEST(GraphTest, CopiesShareFirstUseStructures) {
  const Graph g = TestGraph();
  const Graph copy = g;
  const FirstUseOutputs from_copy = Outputs(copy);
  EXPECT_TRUE(Outputs(g) == from_copy);
  EXPECT_EQ(&g.ByDegree(), &copy.ByDegree());
  EXPECT_EQ(&g.EdgeSources(), &copy.EdgeSources());
  Graph assigned;
  assigned = g;
  EXPECT_TRUE(Outputs(assigned) == from_copy);
}

TEST(GraphTest, EmptyAndMovedFromGraphsAnswerFirstUseQueries) {
  const Graph empty;
  EXPECT_EQ(empty.NumEdges(), 0u);
  EXPECT_TRUE(empty.EdgeSources().empty());
  EXPECT_TRUE(empty.EdgeTargets().empty());
  EXPECT_TRUE(CoreNumbers(empty).empty());

  Graph source = TestGraph();
  const Graph moved = std::move(source);
  EXPECT_EQ(source.EdgeSources().size(), source.NumEdges());
  EXPECT_EQ(source.EdgeTargets().size(), source.NumEdges());
  EXPECT_EQ(CoreNumbers(source).size(), source.NumVertices());
  EXPECT_TRUE(Outputs(moved) == Outputs(TestGraph()));
}

}  // namespace
}  // namespace graphscape
