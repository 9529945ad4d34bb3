// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The terrain pipeline's contract with the tree: footprints nest exactly
// like the super tree (children strictly inside parents, siblings
// disjoint), the rasterized landscape's summit is the tree's maximum,
// and flood-filling the height field at any level t finds exactly
// CountComponentsAtLevel(tree, t) islands — the geometric restatement
// of the superlevel-set component count on small oracle graphs. Plus
// header round-trips for the PPM/SVG artifact writers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "layout/spring_layout.h"
#include "metrics/kcore.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "scalar/tree_queries.h"
#include "terrain/render.h"
#include "terrain/svg.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"

namespace graphscape {
namespace {

// Two triangles bridged through a path vertex, plus a disjoint triangle:
// two graph components, three dense cores.
Graph OracleGraph() {
  GraphBuilder builder(10);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 3);
  builder.AddEdge(2, 6);
  builder.AddEdge(6, 3);
  builder.AddEdge(7, 8);
  builder.AddEdge(8, 9);
  builder.AddEdge(9, 7);
  return builder.Build();
}

// Explicit two-level field (the bridge vertex 6 sits below the cores —
// note a K-Core field could NOT express this oracle: every vertex here
// has degree >= 2, so the whole bridged component is one 2-core).
SuperTree OracleTree(const Graph& g) {
  const VertexScalarField field(
      "f", {2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0});
  return SuperTree(BuildVertexScalarTree(g, field));
}

SuperTree CollabTree(uint32_t n) {
  CollaborationOptions options;
  options.num_vertices = n;
  options.num_groups = n / 8;
  Rng rng(11);
  const Graph g = CollaborationNetwork(options, &rng);
  return SuperTree(BuildVertexScalarTree(
      g, VertexScalarField::FromCounts("KC", CoreNumbers(g))));
}

// 4-connected components of {pixels : height >= level}.
uint32_t CountRasterIslands(const HeightField& field, double level) {
  const uint32_t w = field.width, h = field.height;
  std::vector<char> visited(static_cast<size_t>(w) * h, 0);
  std::vector<uint32_t> stack;
  uint32_t islands = 0;
  for (uint32_t start = 0; start < w * h; ++start) {
    if (visited[start] || field.height_at[start] < level) continue;
    ++islands;
    visited[start] = 1;
    stack.assign(1, start);
    while (!stack.empty()) {
      const uint32_t p = stack.back();
      stack.pop_back();
      const uint32_t x = p % w, y = p / w;
      const uint32_t neighbors[4] = {x > 0 ? p - 1 : p,
                                     x + 1 < w ? p + 1 : p,
                                     y > 0 ? p - w : p,
                                     y + 1 < h ? p + w : p};
      for (const uint32_t q : neighbors) {
        if (q != p && !visited[q] && field.height_at[q] >= level) {
          visited[q] = 1;
          stack.push_back(q);
        }
      }
    }
  }
  return islands;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string content;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
    content.append(buffer, got);
  std::fclose(f);
  return content;
}

TEST(TerrainLayoutTest, ChildFootprintsStrictlyInsideParents) {
  for (const SuperTree& tree : {OracleTree(OracleGraph()), CollabTree(512)}) {
    const TerrainLayout layout = BuildTerrainLayout(tree);
    ASSERT_EQ(layout.NumNodes(), tree.NumNodes());
    for (uint32_t node = 0; node < layout.NumNodes(); ++node) {
      const uint32_t parent = layout.parents[node];
      if (parent == kNoParent) continue;
      EXPECT_TRUE(
          layout.rects[parent].StrictlyContains(layout.rects[node]))
          << "node " << node << " escapes parent " << parent;
    }
  }
}

TEST(TerrainLayoutTest, SiblingFootprintsAreDisjoint) {
  const SuperTree tree = CollabTree(512);
  const TerrainLayout layout = BuildTerrainLayout(tree);
  const TreeMemberIndex& index = tree.MemberIndex();
  for (uint32_t node = 0; node < tree.NumNodes(); ++node) {
    const MemberRange children = index.Children(node);
    for (uint32_t i = 0; i < children.size(); ++i) {
      for (uint32_t j = i + 1; j < children.size(); ++j) {
        EXPECT_TRUE(layout.rects[children[i]].Disjoint(
            layout.rects[children[j]]))
            << "children " << children[i] << " and " << children[j]
            << " of " << node << " overlap";
      }
    }
  }
  // Roots (distinct components) never share land either.
  std::vector<uint32_t> roots;
  for (uint32_t node = 0; node < tree.NumNodes(); ++node)
    if (tree.Parent(node) == kNoParent) roots.push_back(node);
  for (uint32_t i = 0; i < roots.size(); ++i)
    for (uint32_t j = i + 1; j < roots.size(); ++j)
      EXPECT_TRUE(layout.rects[roots[i]].Disjoint(layout.rects[roots[j]]));
}

TEST(TerrainLayoutTest, FootprintAreaTracksSubtreeMass) {
  const SuperTree tree = CollabTree(512);
  const TerrainLayout layout = BuildTerrainLayout(tree);
  // Heavier subtrees get more land: compare every sibling pair.
  const TreeMemberIndex& index = tree.MemberIndex();
  for (uint32_t node = 0; node < tree.NumNodes(); ++node) {
    const MemberRange children = index.Children(node);
    for (uint32_t i = 0; i < children.size(); ++i) {
      for (uint32_t j = 0; j < children.size(); ++j) {
        if (index.SubtreeMemberCount(children[i]) >
            2 * index.SubtreeMemberCount(children[j])) {
          EXPECT_GT(layout.rects[children[i]].Area(),
                    layout.rects[children[j]].Area());
        }
      }
    }
  }
}

TEST(TerrainRasterTest, HeightFieldMaxEqualsTreeMax) {
  const SuperTree tree = OracleTree(OracleGraph());
  double tree_max = tree.Value(0);
  for (uint32_t node = 0; node < tree.NumNodes(); ++node)
    tree_max = std::max(tree_max, tree.Value(node));
  RasterOptions options;
  options.width = options.height = 256;
  const HeightField field = RasterizeTerrain(BuildTerrainLayout(tree), options);
  const double raster_max =
      *std::max_element(field.height_at.begin(), field.height_at.end());
  EXPECT_DOUBLE_EQ(raster_max, tree_max);
  EXPECT_LT(field.sea_level, field.min_value);
}

TEST(TerrainRasterTest, IslandsMatchComponentCountOnOracle) {
  const Graph g = OracleGraph();
  const SuperTree tree = OracleTree(g);
  RasterOptions options;
  options.width = options.height = 256;
  const HeightField field = RasterizeTerrain(BuildTerrainLayout(tree), options);
  // Three dense cores at K=2 (two bridged, one disjoint), two components
  // at K=1 — checked against the flood fill at levels between, at, and
  // below the field's two K values.
  for (const double level : {2.0, 1.5, 1.0}) {
    EXPECT_EQ(CountRasterIslands(field, level),
              CountComponentsAtLevel(tree, level))
        << "at level " << level;
  }
  EXPECT_EQ(CountRasterIslands(field, 2.0), 3u);
  EXPECT_EQ(CountRasterIslands(field, 1.0), 2u);
}

TEST(TerrainRasterTest, IslandsMatchComponentCountOnCollab) {
  const SuperTree tree = CollabTree(256);
  RasterOptions options;
  options.width = options.height = 512;
  const HeightField field = RasterizeTerrain(BuildTerrainLayout(tree), options);
  double max_value = tree.Value(0);
  for (uint32_t node = 0; node < tree.NumNodes(); ++node)
    max_value = std::max(max_value, tree.Value(node));
  EXPECT_EQ(CountRasterIslands(field, max_value),
            CountComponentsAtLevel(tree, max_value));
}

TEST(RenderTest, FourBandMatchesIndexAndEndpoints) {
  EXPECT_EQ(FourBandIndex(0.0), 0u);
  EXPECT_EQ(FourBandIndex(0.26), 1u);
  EXPECT_EQ(FourBandIndex(0.51), 2u);
  EXPECT_EQ(FourBandIndex(1.0), 3u);
  EXPECT_EQ(FourBandColor(0.0), ContinuousColor(0.0));  // both start blue
  EXPECT_EQ(FourBandColor(1.0), ContinuousColor(1.0));  // both end red
  EXPECT_DOUBLE_EQ(NormalizeValue(5.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(NormalizeValue(-3.0, 0.0, 10.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(NormalizeValue(7.0, 7.0, 7.0), 0.5);    // degenerate
}

TEST(RenderTest, SuperNodeColorsAverageMemberValues) {
  // Path 0-1-2 with distinct scalars: three singleton super nodes.
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const Graph g = builder.Build();
  const VertexScalarField field("f", {3.0, 2.0, 1.0});
  const SuperTree tree(BuildVertexScalarTree(g, field));
  const std::vector<double> element_values = {10.0, 0.0, 5.0};
  const auto colors = SuperNodeColors(tree, element_values);
  ASSERT_EQ(colors.size(), tree.NumNodes());
  EXPECT_EQ(colors[tree.NodeOf(0)], FourBandColor(1.0));  // mean 10 -> red
  EXPECT_EQ(colors[tree.NodeOf(1)], FourBandColor(0.0));  // mean 0 -> blue
  EXPECT_EQ(colors[tree.NodeOf(2)], FourBandColor(0.5));  // mean 5 -> mid
}

TEST(RenderTest, ObliqueDimensions) {
  const SuperTree tree = OracleTree(OracleGraph());
  RasterOptions options;
  options.width = options.height = 64;
  const HeightField field = RasterizeTerrain(BuildTerrainLayout(tree), options);
  const auto colors = HeightColors(tree);
  const Image oblique = RenderOblique(field, colors, Camera{}, 320, 200);
  EXPECT_EQ(oblique.width, 320u);
  EXPECT_EQ(oblique.height, 200u);
  EXPECT_EQ(oblique.pixels.size(), 320u * 200u);
}

TEST(RenderTest, PpmHeaderRoundTrips) {
  const SuperTree tree = OracleTree(OracleGraph());
  RasterOptions options;
  options.width = options.height = 32;
  const HeightField field = RasterizeTerrain(BuildTerrainLayout(tree), options);
  const Image image =
      RenderOblique(field, HeightColors(tree), Camera{}, 96, 64);
  const std::string path = TempPath("graphscape_render_test.ppm");
  ASSERT_TRUE(WritePpm(image, path));
  const std::string content = ReadFile(path);
  unsigned w = 0, h = 0, maxval = 0;
  int header_len = 0;
  ASSERT_EQ(std::sscanf(content.c_str(), "P6\n%u %u\n%u\n%n", &w, &h,
                        &maxval, &header_len),
            3);
  EXPECT_EQ(w, image.width);
  EXPECT_EQ(h, image.height);
  EXPECT_EQ(maxval, 255u);
  EXPECT_EQ(content.size() - static_cast<size_t>(header_len),
            static_cast<size_t>(w) * h * 3);
  std::filesystem::remove(path);
}

TEST(SvgTest, WritersEmitParsableSvgDocuments) {
  const Graph g = OracleGraph();
  const SuperTree tree = OracleTree(g);
  SpringLayoutOptions spring;
  spring.iterations = 10;
  const Positions pos = SpringLayout(g, spring);
  const std::vector<Rgb> vertex_colors(g.NumVertices(), Rgb{59, 130, 246});

  const std::string node_link = TempPath("graphscape_nodelink_test.svg");
  ASSERT_TRUE(WriteNodeLinkSvg(g, pos, vertex_colors, node_link, 300.0, 2.0));
  const std::string node_link_content = ReadFile(node_link);
  EXPECT_EQ(node_link_content.rfind("<svg", 0), 0u);
  EXPECT_NE(node_link_content.find("<circle"), std::string::npos);
  EXPECT_NE(node_link_content.find("</svg>"), std::string::npos);
  std::filesystem::remove(node_link);

  const std::string treemap = TempPath("graphscape_treemap_test.svg");
  ASSERT_TRUE(WriteTreemapSvg(BuildTerrainLayout(tree), HeightColors(tree),
                              treemap));
  const std::string treemap_content = ReadFile(treemap);
  EXPECT_EQ(treemap_content.rfind("<svg", 0), 0u);
  EXPECT_NE(treemap_content.find("<rect"), std::string::npos);
  EXPECT_NE(treemap_content.find("</svg>"), std::string::npos);
  std::filesystem::remove(treemap);
}

TEST(SvgTest, WritersRejectSizeMismatches) {
  const Graph g = OracleGraph();
  const Positions wrong_size(3);
  const std::vector<Rgb> colors(g.NumVertices());
  EXPECT_FALSE(WriteNodeLinkSvg(g, wrong_size, colors,
                                TempPath("graphscape_bad.svg"), 100, 1.0));
  const SuperTree tree = OracleTree(g);
  const std::vector<Rgb> wrong_colors(1);
  EXPECT_FALSE(WriteTreemapSvg(BuildTerrainLayout(tree), wrong_colors,
                               TempPath("graphscape_bad.svg")));
}

}  // namespace
}  // namespace graphscape
