// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fig. 9 + Table III: roles over one Amazon co-purchase community. The
// community-score terrain is colored by detected role; the paper's layering
// (green hub summit, blue dense band, red periphery) is verified
// quantitatively by comparing mean heights per role, and a Table III
// analogue lists exemplar members per role.

#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "community/roles.h"
#include "gen/generators.h"
#include "graph/graph_algos.h"
#include "layout/spring_layout.h"
#include "scalar/scalar_tree.h"
#include "terrain/render.h"
#include "terrain/svg.h"
#include "terrain/terrain_raster.h"

int main() {
  using namespace graphscape;
  bench::Banner("Fig. 9 + Table III — roles on an Amazon community",
                "paper Fig. 9(a)/(b) role-colored terrain + Table III roles");
  const std::string out = bench::OutputDir();

  RoleCommunityOptions options;
  options.num_dense = 40;
  options.num_periphery = 80;
  options.num_whiskers = 30;
  Rng rng(9);
  const RoleCommunityResult amazon = RoleCommunityGraph(options, &rng);
  std::printf("Amazon-like: %u vertices, %" PRIu64 " edges; community of %zu "
              "products\n",
              amazon.graph.NumVertices(), amazon.graph.NumEdges(),
              amazon.community_vertices.size());

  const auto roles = ClassifyRoles(amazon.graph, amazon.community_vertices);
  std::printf("role recovery accuracy vs planted: %.2f\n",
              RoleAccuracy(roles, amazon.roles));

  // Terrain from the community score, colored by dominant member role.
  const VertexScalarField score("community_score", amazon.community_score);
  const SuperTree tree(BuildVertexScalarTree(amazon.graph, score));
  const TerrainLayout layout = BuildTerrainLayout(tree);
  const HeightField field = RasterizeTerrain(layout);
  std::vector<Rgb> colors(tree.NumNodes());
  for (uint32_t node = 0; node < tree.NumNodes(); ++node) {
    uint32_t votes[5] = {0, 0, 0, 0, 0};
    for (uint32_t member : tree.Members(node))
      ++votes[static_cast<uint32_t>(roles[member])];
    uint32_t best = 4;
    for (uint32_t r = 0; r < 5; ++r)
      if (votes[r] > votes[best]) best = r;
    colors[node] = RoleColor(static_cast<VertexRole>(best));
  }
  (void)WritePpm(RenderOblique(field, colors, Camera{}, 800, 600),
                 out + "/fig9a_roles_terrain.ppm");

  // The paper's layering claim, checked on heights.
  double mean_height[5] = {0, 0, 0, 0, 0};
  uint32_t count[5] = {0, 0, 0, 0, 0};
  for (VertexId v : amazon.community_vertices) {
    const auto r = static_cast<uint32_t>(roles[v]);
    mean_height[r] += amazon.community_score[v];
    ++count[r];
  }
  const char* names[5] = {"hub(green)", "dense(blue)", "periphery(red)",
                          "whisker(yellow)", "background"};
  std::printf("mean terrain height per role:\n");
  for (int r = 0; r < 4; ++r) {
    if (count[r] == 0) continue;
    std::printf("  %-16s %.3f  (%u vertices)\n", names[r],
                mean_height[r] / count[r], count[r]);
  }
  std::printf("shape check: hub > dense > periphery > whisker (green summit "
              "over blue band over red slope)\n");

  // Fig 9(b): node-link detail of the community.
  const Subgraph sub = InducedSubgraph(amazon.graph, amazon.community_vertices);
  const Positions pos = SpringLayout(sub.graph);
  std::vector<Rgb> vertex_colors(sub.graph.NumVertices());
  for (VertexId local = 0; local < sub.graph.NumVertices(); ++local)
    vertex_colors[local] = RoleColor(roles[sub.to_parent_vertex[local]]);
  (void)WriteNodeLinkSvg(sub.graph, pos, vertex_colors,
                         out + "/fig9b_community_detail.svg", 700, 3.0);

  // Table III analogue: exemplar members per role (synthetic product ids
  // stand in for the paper's book titles).
  std::printf("\nTable III analogue (exemplar products per role):\n");
  std::printf("  %-16s %s\n", "Role", "Product");
  int printed[5] = {0, 0, 0, 0, 0};
  for (VertexId v : amazon.community_vertices) {
    const auto r = static_cast<uint32_t>(roles[v]);
    if (r > 2 || printed[r] >= (r == 0 ? 1 : 3)) continue;
    std::printf("  %-16s product-%04u (score %.2f, degree %u)\n", names[r], v,
                amazon.community_score[v], amazon.graph.Degree(v));
    ++printed[r];
  }
  return 0;
}
