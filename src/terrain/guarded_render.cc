// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "terrain/guarded_render.h"

#include <functional>
#include <utility>
#include <vector>

#include "scalar/persistence.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"

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

struct Rung {
  bool simplified;
  uint32_t divisor;
};

// make_simplified may be null (the tree-only entry point: without the
// Graph there is no persistence rung); the ladder then degrades by
// resolution halving alone.
StatusOr<GuardedRenderResult> RenderLadder(
    const SuperTree& full_tree,
    const std::function<SuperTree()>& make_simplified,
    uint64_t build_charge, ResourceBudget* budget,
    const GuardedRenderOptions& options) {
  SuperTree simplified_tree;
  bool have_simplified = false;

  const bool can_simplify = static_cast<bool>(make_simplified);
  std::vector<Rung> rungs = {{false, 1}};
  if (can_simplify) rungs.push_back({true, 1});
  for (uint32_t divisor = 2;
       options.raster.width / divisor >= options.min_raster_dim &&
       options.raster.height / divisor >= options.min_raster_dim;
       divisor *= 2) {
    rungs.push_back({can_simplify, divisor});
  }

  for (const Rung& rung : rungs) {
    Status deadline = CheckBudgetDeadline(budget, "terrain render");
    if (!deadline.ok()) {
      ReleaseBudget(budget, build_charge);
      return deadline;
    }
    const SuperTree* tree = &full_tree;
    if (rung.simplified) {
      if (!have_simplified) {
        simplified_tree = make_simplified();
        have_simplified = true;
      }
      tree = &simplified_tree;
    }
    RasterOptions raster;
    raster.width = options.raster.width / rung.divisor;
    raster.height = options.raster.height / rung.divisor;
    const uint32_t image_w =
        options.image_width / rung.divisor > 0
            ? options.image_width / rung.divisor : 1;
    const uint32_t image_h =
        options.image_height / rung.divisor > 0
            ? options.image_height / rung.divisor : 1;
    const uint64_t working = TerrainRenderWorkingBytes(
        tree->NumNodes(), raster.width, raster.height, image_w, image_h);
    if (!ChargeBudget(budget, working, "terrain render working set").ok()) {
      continue;  // this rung doesn't fit; the next one is cheaper
    }

    const TerrainLayout layout = BuildTerrainLayout(*tree, options.layout);
    const HeightField height_field = RasterizeTerrain(layout, raster);
    GuardedRenderResult result;
    result.image = RenderOblique(height_field, HeightColors(*tree),
                                 options.camera, image_w, image_h);
    result.tree_simplified = rung.simplified;
    uint32_t halvings = 0;
    for (uint32_t d = rung.divisor; d > 1; d /= 2) ++halvings;
    result.halvings = halvings;
    result.raster_width = raster.width;
    result.raster_height = raster.height;
    result.tree_nodes = tree->NumNodes();
    result.retained_bytes =
        static_cast<uint64_t>(image_w) * image_h * kBytesPerImagePixel;
    // Everything but the image the caller keeps goes back to the budget.
    ReleaseBudget(budget, build_charge + working - result.retained_bytes);
    return result;
  }
  ReleaseBudget(budget, build_charge);
  return Status::ResourceExhausted(
      "terrain render: no ladder rung fits the budget (tried every "
      "degradation down to the minimum raster dimension)");
}

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

StatusOr<GuardedRenderResult> RenderVertexTerrainGuarded(
    const Graph& g, const VertexScalarField& field, ResourceBudget* budget,
    const GuardedRenderOptions& options) {
  StatusOr<ScalarTree> built =
      BuildVertexScalarTreeGuarded(g, field, budget);
  if (!built.ok()) return built.status();
  const uint64_t build_charge = VertexScalarTreeBuildBytes(g.NumVertices());
  const ScalarTree scalar_tree = std::move(built).value();
  const SuperTree full_tree(scalar_tree);
  const double threshold = options.simplify_persistence_fraction *
                           (field.MaxValue() - field.MinValue());
  const auto make_simplified = [&]() {
    const VertexScalarField simplified_field(
        field.Name(), PersistenceSimplifiedValues(scalar_tree, threshold));
    return SuperTree(BuildVertexScalarTree(g, simplified_field));
  };
  return RenderLadder(full_tree, make_simplified, build_charge, budget,
                      options);
}

StatusOr<GuardedRenderResult> RenderEdgeTerrainGuarded(
    const Graph& g, const EdgeScalarField& field, ResourceBudget* budget,
    const GuardedRenderOptions& options) {
  StatusOr<ScalarTree> built = BuildEdgeScalarTreeGuarded(g, field, budget);
  if (!built.ok()) return built.status();
  const uint64_t build_charge =
      EdgeScalarTreeBuildBytes(g.NumVertices(), g.NumEdges());
  const ScalarTree scalar_tree = std::move(built).value();
  const SuperTree full_tree(scalar_tree);
  const double threshold = options.simplify_persistence_fraction *
                           (field.MaxValue() - field.MinValue());
  const auto make_simplified = [&]() {
    const EdgeScalarField simplified_field(
        field.Name(), PersistenceSimplifiedValues(scalar_tree, threshold));
    return SuperTree(BuildEdgeScalarTree(g, simplified_field));
  };
  return RenderLadder(full_tree, make_simplified, build_charge, budget,
                      options);
}

StatusOr<GuardedRenderResult> RenderTreeTerrainGuarded(
    const SuperTree& tree, ResourceBudget* budget,
    const GuardedRenderOptions& options) {
  // No Graph in hand, so no persistence rung: SimplifyByPersistence
  // needs the original field over the graph, and a cached TreeArtifact
  // deliberately does not carry the graph (docs/ARTIFACT_FORMAT.md).
  // The ladder degrades by resolution halving only, and there is no
  // build charge — the tree already exists and is owned by the caller.
  return RenderLadder(tree, nullptr, /*build_charge=*/0, budget, options);
}

}  // namespace graphscape
