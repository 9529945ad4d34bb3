// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Budget-guarded terrain rendering of a built SuperTree: layout ->
// raster -> image behind a ResourceBudget, degrading deliberately
// instead of dying in the allocator when a paper-scale render would blow
// the cap. The ladder, tried in order until a rung's working set fits
// the budget:
//
//   1. the tree at the requested raster and image resolution;
//   2. raster AND image resolution halved, then quartered, ... down to
//      min_raster_dim;
//   3. ResourceExhausted — every rung refused.
//
// Each rung charges its estimated working set (the formula is public so
// tests pin the ladder exactly) BEFORE building anything; a refused
// charge costs nothing and the next rung is tried. On success everything
// except the returned image is released back to the budget. The deadline
// is checked between rungs; an expired budget fails fast with
// DeadlineExceeded rather than rendering a stale frame.

#ifndef GRAPHSCAPE_TERRAIN_GUARDED_RENDER_H_
#define GRAPHSCAPE_TERRAIN_GUARDED_RENDER_H_

#include <cstdint>

#include "common/budget.h"
#include "common/status.h"
#include "scalar/super_tree.h"
#include "terrain/render.h"

namespace graphscape {

struct GuardedRenderOptions {
  /// Full-resolution height-field request; degradation halves from here.
  uint32_t raster_width = 512;
  uint32_t raster_height = 512;
  uint32_t image_width = 960;
  uint32_t image_height = 720;
  Camera camera;
  /// Halving stops once either raster dimension would drop below this
  /// (0 counts as 1); the next refusal is final.
  uint32_t min_raster_dim = 64;
};

/// What was rendered and how degraded it is.
struct GuardedRenderResult {
  Image image;
  uint32_t halvings = 0;      ///< times the resolution was halved
  uint32_t raster_width = 0;  ///< actual raster dims used
  uint32_t raster_height = 0;
  /// Bytes still charged against the budget on return (the image the
  /// caller now owns); release when the image is dropped.
  uint64_t retained_bytes = 0;
};

/// Estimated working-set bytes of one render rung: layout + member index
/// + node colors (per super node), the height field and RenderOblique's
/// depth order (20 bytes/raster pixel), its rotation tables and depth
/// buckets (24 bytes per raster row and column), the output image and
/// the render's written mask (3 + 1 bytes/image pixel) and its covered
/// runs (8 bytes/image column). This is exactly what a rung charges, so
/// tests can compute which rung a given cap lands on.
uint64_t TerrainRenderWorkingBytes(uint32_t tree_nodes,
                                   uint32_t raster_width,
                                   uint32_t raster_height,
                                   uint32_t image_width,
                                   uint32_t image_height);

/// Renders `tree` down the ladder above (the query service's TILE verb
/// renders cached TreeArtifacts this way). ResourceExhausted when even
/// the cheapest rung refuses; DeadlineExceeded between rungs. No charge
/// is taken for the tree: it is the caller's standing allocation.
/// Everything transient is freed on return; only the returned image
/// (result.retained_bytes) stays charged to the budget.
///
/// Thread safety: concurrent calls over the SAME tree are safe only if
/// tree.MemberIndex() has already been built (it is lazily constructed
/// and not internally synchronized — see scalar/super_tree.h). The
/// query service primes it at artifact-load time for exactly this
/// reason.
StatusOr<GuardedRenderResult> RenderTreeTerrainGuarded(
    const SuperTree& tree, ResourceBudget* budget,
    const GuardedRenderOptions& options = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_TERRAIN_GUARDED_RENDER_H_
