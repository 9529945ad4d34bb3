// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Tree -> geometry: the load-bearing step of the terrain metaphor
// (paper Figs. 1, 5–7). Every super node of the scalar tree becomes a
// rectangular plot of land in the unit square:
//
//   * a node's footprint area is proportional to its SUBTREE member mass
//     (the whole superlevel-set component that peaks inside it);
//   * children are allocated strictly INSIDE their parent's footprint,
//     shrunk so the parent keeps a visible annulus of its own land —
//     proportional to the parent's own member count — around them;
//   * siblings are separated by gaps, so two peaks that merge only at a
//     lower level stay disjoint at every level above it.
//
// Those three invariants make the rendered landscape quote the tree
// exactly: the superlevel set {f >= t} rasterizes to one island per
// component (PeaksAtLevel/CountComponentsAtLevel agree with flood
// filling the height field — pinned by tests/terrain_test.cc), and a
// peak standing on a shared foundation is drawn inside it.
//
// The allocation runs over the cached TreeMemberIndex — Children() for
// the recursion, SubtreeMemberCount() for the masses — in one preorder
// pass with an explicit stack: O(nodes) after the index build, no
// recursion depth hazard on chain-heavy trees. Siblings share their
// parent's inner rect by recursively halving the child list by mass and
// cutting the longer side — near-square plots at a log(children) factor.

#ifndef GRAPHSCAPE_TERRAIN_TERRAIN_LAYOUT_H_
#define GRAPHSCAPE_TERRAIN_TERRAIN_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "scalar/super_tree.h"
#include "scalar/tree_queries.h"

namespace graphscape {

/// Axis-aligned footprint in layout space ([0, 1]^2).
struct LandRect {
  double x0 = 0.0, y0 = 0.0, x1 = 0.0, y1 = 0.0;

  double Width() const { return x1 - x0; }
  double Height() const { return y1 - y0; }
  double Area() const { return Width() * Height(); }
  bool StrictlyContains(const LandRect& inner) const {
    return inner.x0 > x0 && inner.y0 > y0 && inner.x1 < x1 && inner.y1 < y1;
  }
  bool Disjoint(const LandRect& other) const {
    return x1 <= other.x0 || other.x1 <= x0 || y1 <= other.y0 || other.y1 <= y0;
  }
};

struct TerrainLayout {
  /// Per super node, indexed like the source tree.
  std::vector<LandRect> rects;
  std::vector<double> values;     ///< node scalar (the plot's height)
  std::vector<uint32_t> parents;  ///< kNoParent for roots
  /// All nodes in preorder (parents before children) — the painter's
  /// order for rasterization and the treemap SVG.
  std::vector<uint32_t> paint_order;
  double min_value = 0.0;
  double max_value = 0.0;

  uint32_t NumNodes() const { return static_cast<uint32_t>(rects.size()); }

  /// Height in [0, 1]; 0 for a constant field.
  double NormalizedHeight(uint32_t node) const {
    return max_value > min_value
               ? (values[node] - min_value) / (max_value - min_value)
               : 0.0;
  }
};

TerrainLayout BuildTerrainLayout(const SuperTree& tree);

}  // namespace graphscape

#endif  // GRAPHSCAPE_TERRAIN_TERRAIN_LAYOUT_H_
