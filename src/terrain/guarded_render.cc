// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "terrain/guarded_render.h"

#include <algorithm>

#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"

namespace graphscape {
namespace {

// Per super node: LandRect (32) + value (8) + parent (4) + paint order
// (4) + the TreeMemberIndex children/offsets BuildTerrainLayout builds
// (~24) + an Rgb color. Rounded up; the pixel terms dominate real
// renders.
constexpr uint64_t kBytesPerSuperNode = 80;
// The height field (height + owning node) and RenderOblique's depth
// order (one packed 8-byte cell per raster pixel).
constexpr uint64_t kBytesPerRasterPixel = 8 + 4 + 8;
// RenderOblique's rotation tables (two doubles per raster row and per
// column) and its depth-bucket starts (two per row or column, plus one);
// charged per raster row and column, plus one.
constexpr uint64_t kBytesPerRasterLine = 16 + 8;
constexpr uint64_t kBytesPerImagePixel = 3;  // the image the caller keeps
// RenderOblique's written mask (1 byte per image pixel) and its covered
// run per image column (two ints).
constexpr uint64_t kBytesPerMaskPixel = 1;
constexpr uint64_t kBytesPerImageColumn = 8;

}  // namespace

uint64_t TerrainRenderWorkingBytes(uint32_t tree_nodes,
                                   uint32_t raster_width,
                                   uint32_t raster_height,
                                   uint32_t image_width,
                                   uint32_t image_height) {
  return static_cast<uint64_t>(tree_nodes) * kBytesPerSuperNode +
         static_cast<uint64_t>(raster_width) * raster_height *
             kBytesPerRasterPixel +
         (static_cast<uint64_t>(raster_width) + raster_height + 1) *
             kBytesPerRasterLine +
         static_cast<uint64_t>(image_width) * image_height *
             (kBytesPerImagePixel + kBytesPerMaskPixel) +
         static_cast<uint64_t>(image_width) * kBytesPerImageColumn;
}

StatusOr<GuardedRenderResult> RenderTreeTerrainGuarded(
    const SuperTree& tree, ResourceBudget* budget,
    const GuardedRenderOptions& options) {
  // Divisor 1 is always tried; halving stops before either raster
  // dimension drops below the floor. A zero floor counts as 1, or the
  // divisor would double until it wrapped to 0.
  const uint32_t min_dim = std::max(options.min_raster_dim, 1u);
  for (uint32_t divisor = 1, halvings = 0;
       divisor == 1 || (options.raster_width / divisor >= min_dim &&
                        options.raster_height / divisor >= min_dim);
       divisor *= 2, ++halvings) {
    Status deadline = CheckBudgetDeadline(budget, "terrain render");
    if (!deadline.ok()) return deadline;
    // One raster lane: the query service renders tiles on its worker
    // pool, and ParallelFor regions serialize globally.
    RasterOptions raster;
    raster.width = options.raster_width / divisor;
    raster.height = options.raster_height / divisor;
    const uint32_t image_w = std::max(options.image_width / divisor, 1u);
    const uint32_t image_h = std::max(options.image_height / divisor, 1u);
    const uint64_t working = TerrainRenderWorkingBytes(
        tree.NumNodes(), raster.width, raster.height, image_w, image_h);
    if (!ChargeBudget(budget, working, "terrain render working set").ok()) {
      continue;  // this rung doesn't fit; the next one is cheaper
    }

    const TerrainLayout layout = BuildTerrainLayout(tree);
    const HeightField height_field = RasterizeTerrain(layout, raster);
    GuardedRenderResult result;
    result.image = RenderOblique(height_field, HeightColors(tree),
                                 options.camera, image_w, image_h);
    result.halvings = halvings;
    result.raster_width = raster.width;
    result.raster_height = raster.height;
    result.retained_bytes =
        static_cast<uint64_t>(image_w) * image_h * kBytesPerImagePixel;
    // Everything but the image the caller keeps goes back to the budget.
    ReleaseBudget(budget, working - result.retained_bytes);
    return result;
  }
  return Status::ResourceExhausted(
      "terrain render: no ladder rung fits the budget (tried every "
      "degradation down to the minimum raster dimension)");
}

}  // namespace graphscape
