// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/graph_algos.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"

namespace graphscape {
namespace {

Graph ThreeComponents() {
  // {0,1,2} path, {3,4} edge, {5} isolated.
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(3, 4);
  return builder.Build();
}

TEST(ConnectedComponentsTest, LabelsAreDenseAndConsistent) {
  const Graph g = ThreeComponents();
  const ComponentLabeling comps = ConnectedComponents(g);
  EXPECT_EQ(comps.num_components, 3u);
  EXPECT_EQ(comps.ComponentOf(0), comps.ComponentOf(1));
  EXPECT_EQ(comps.ComponentOf(1), comps.ComponentOf(2));
  EXPECT_EQ(comps.ComponentOf(3), comps.ComponentOf(4));
  EXPECT_NE(comps.ComponentOf(0), comps.ComponentOf(3));
  EXPECT_NE(comps.ComponentOf(0), comps.ComponentOf(5));
  EXPECT_NE(comps.ComponentOf(3), comps.ComponentOf(5));
  // Dense ids in order of smallest member: 0 -> 0, 3 -> 1, 5 -> 2.
  EXPECT_EQ(comps.ComponentOf(0), 0u);
  EXPECT_EQ(comps.ComponentOf(3), 1u);
  EXPECT_EQ(comps.ComponentOf(5), 2u);
}

TEST(ConnectedComponentsTest, BarabasiAlbertIsOneComponent) {
  Rng rng(1);
  const Graph g = BarabasiAlbert(1000, 3, &rng);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
}

TEST(KHopNeighborhoodTest, CenterFirstThenRings) {
  // Star center 0 with leaves 1..4, plus a tail 4-5.
  GraphBuilder builder(6);
  for (uint32_t v = 1; v <= 4; ++v) builder.AddEdge(0, v);
  builder.AddEdge(4, 5);
  const Graph g = builder.Build();

  const std::vector<VertexId> one = KHopNeighborhood(g, 5, 1);
  ASSERT_EQ(one.size(), 2u);
  EXPECT_EQ(one[0], 5u);  // center first — callers color index 0
  EXPECT_EQ(one[1], 4u);

  const std::vector<VertexId> two = KHopNeighborhood(g, 5, 2);
  EXPECT_EQ(two.size(), 3u);  // 5, 4, 0
  const std::vector<VertexId> three = KHopNeighborhood(g, 5, 3);
  EXPECT_EQ(three.size(), 6u);  // everything
}

TEST(InducedSubgraphTest, PreservesOrderAndKeepsInternalEdgesOnly) {
  const Graph g = ThreeComponents();
  const Subgraph sub = InducedSubgraph(g, {2, 0, 1, 3, 2});
  // Duplicates ignored; local ids follow first-occurrence order.
  ASSERT_EQ(sub.to_parent_vertex.size(), 4u);
  EXPECT_EQ(sub.to_parent_vertex[0], 2u);
  EXPECT_EQ(sub.to_parent_vertex[1], 0u);
  EXPECT_EQ(sub.to_parent_vertex[2], 1u);
  EXPECT_EQ(sub.to_parent_vertex[3], 3u);
  // Edges 0-1 and 1-2 survive (locals 1-2 and 2-0); 3-4 dropped (4 absent).
  EXPECT_EQ(sub.graph.NumVertices(), 4u);
  EXPECT_EQ(sub.graph.NumEdges(), 2u);
  EXPECT_TRUE(sub.graph.HasEdge(1, 2));
  EXPECT_TRUE(sub.graph.HasEdge(0, 2));
  EXPECT_FALSE(sub.graph.HasEdge(0, 1));
  EXPECT_EQ(sub.graph.Degree(3), 0u);
}

TEST(InducedSubgraphTest, DegreesMatchParentOnFullSelection) {
  Rng rng(4);
  const Graph g = ErdosRenyi(80, 0.05, &rng);
  std::vector<VertexId> all(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) all[v] = v;
  const Subgraph sub = InducedSubgraph(g, all);
  ASSERT_EQ(sub.graph.NumVertices(), g.NumVertices());
  EXPECT_EQ(sub.graph.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v)
    EXPECT_EQ(sub.graph.Degree(v), g.Degree(v));
}

}  // namespace
}  // namespace graphscape
