// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fig. 5: 2D treemap vs 3D terrain of the same scalar tree (GrQc, KC(v)).
// The quantitative point the paper makes: color alone (treemap) cannot
// discriminate close scalar values that height separates — we print the
// number of distinct KC values that collapse into each of the four color
// bands.

#include <cstdio>
#include <map>
#include <set>

#include "bench_util.h"
#include "gen/datasets.h"
#include "metrics/kcore.h"
#include "scalar/scalar_tree.h"
#include "terrain/render.h"
#include "terrain/svg.h"
#include "terrain/terrain_raster.h"

int main() {
  using namespace graphscape;
  bench::Banner("Fig. 5 — 2D treemap vs 3D terrain",
                "paper Fig. 5(a) GrQc treemap, Fig. 5(b) GrQc terrain");
  const std::string out = bench::OutputDir();

  const Dataset grqc = MakeDataset(DatasetId::kGrQc);
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(grqc.graph));
  const SuperTree tree(BuildVertexScalarTree(grqc.graph, kc));
  const TerrainLayout layout = BuildTerrainLayout(tree);

  // (a) the flat 2D treemap: heights zeroed, color = scalar band.
  (void)WriteTreemapSvg(layout, HeightColors(tree),
                        out + "/fig5a_treemap.svg");
  // (b) the 3D terrain.
  const HeightField field = RasterizeTerrain(layout);
  (void)WritePpm(
      RenderOblique(field, HeightColors(tree), Camera{}, 960, 720),
      out + "/fig5b_terrain.ppm");

  // Color-channel quantization: distinct KC values per four-band color.
  std::map<uint32_t, std::set<double>> values_per_band;
  for (uint32_t node = 0; node < tree.NumNodes(); ++node) {
    const double t = NormalizeValue(tree.Value(node), kc.MinValue(),
                                    kc.MaxValue());
    values_per_band[FourBandIndex(t)].insert(tree.Value(node));
  }
  std::printf("distinct KC values collapsed into each treemap color band:\n");
  const char* band_names[4] = {"blue", "green", "yellow", "red"};
  for (const auto& [band, values] : values_per_band) {
    std::printf("  %-6s: %zu distinct values", band_names[band],
                values.size());
    if (values.size() > 1)
      std::printf("  <- indistinguishable by color, separated by height");
    std::printf("\n");
  }
  std::printf("-> %s/fig5a_treemap.svg, %s/fig5b_terrain.ppm\n", out.c_str(),
              out.c_str());
  return 0;
}
