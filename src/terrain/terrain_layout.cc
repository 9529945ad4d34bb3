// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "terrain/terrain_layout.h"

#include <algorithm>
#include <cmath>

namespace graphscape {
namespace {

// Fraction of each footprint's side length kept as the sibling gap and
// the parent annulus floor.
constexpr double kMargin = 0.04;

// Shrinks `rect` by `fraction` of its own side length on every side —
// the sibling gap. Strictly smaller for any fraction in (0, 0.5).
LandRect ShrinkByFraction(const LandRect& rect, double fraction) {
  const double dx = rect.Width() * fraction;
  const double dy = rect.Height() * fraction;
  return LandRect{rect.x0 + dx, rect.y0 + dy, rect.x1 - dx, rect.y1 - dy};
}

// Scales `rect` around its center so its area becomes `area_fraction` of
// the original, capped so a strict border always survives.
LandRect ScaleToAreaFraction(const LandRect& rect, double area_fraction) {
  const double scale = std::min(std::sqrt(std::max(area_fraction, 0.01)),
                                1.0 - 2.0 * kMargin);
  const double cx = (rect.x0 + rect.x1) * 0.5;
  const double cy = (rect.y0 + rect.y1) * 0.5;
  const double hw = rect.Width() * 0.5 * scale;
  const double hh = rect.Height() * 0.5 * scale;
  return LandRect{cx - hw, cy - hh, cx + hw, cy + hh};
}

// Partitions `rect` among children[lo, hi) proportionally to their
// masses: split the list at the prefix closest to half the mass (always
// leaving both halves nonempty), cut the longer side there and recurse.
// Every assigned footprint is then shrunk by kMargin so siblings are
// separated and containment in `rect` is strict.
struct ChildSlice {
  const uint32_t* children;
  const double* masses;
};

void AssignChildRects(const ChildSlice& slice, uint32_t lo, uint32_t hi,
                      const LandRect& rect, double total_mass,
                      std::vector<LandRect>* rects) {
  if (lo >= hi) return;
  if (hi - lo == 1) {
    (*rects)[slice.children[lo]] = ShrinkByFraction(rect, kMargin);
    return;
  }
  double prefix = 0.0;
  uint32_t mid = lo + 1;
  for (uint32_t i = lo; i + 1 < hi; ++i) {
    prefix += slice.masses[i];
    mid = i + 1;
    if (prefix * 2.0 >= total_mass) break;
  }
  double left_mass = 0.0;
  for (uint32_t i = lo; i < mid; ++i) left_mass += slice.masses[i];
  const double frac = left_mass / total_mass;
  LandRect a = rect, b = rect;
  if (rect.Width() >= rect.Height()) {
    const double cut = rect.x0 + rect.Width() * frac;
    a.x1 = cut;
    b.x0 = cut;
  } else {
    const double cut = rect.y0 + rect.Height() * frac;
    a.y1 = cut;
    b.y0 = cut;
  }
  AssignChildRects(slice, lo, mid, a, left_mass, rects);
  AssignChildRects(slice, mid, hi, b, total_mass - left_mass, rects);
}

}  // namespace

TerrainLayout BuildTerrainLayout(const SuperTree& tree) {
  TerrainLayout layout;
  const uint32_t n = tree.NumNodes();
  if (n == 0) return layout;
  const TreeMemberIndex& index = tree.MemberIndex();

  layout.rects.resize(n);
  layout.values.resize(n);
  layout.parents.resize(n);
  layout.paint_order.reserve(n);
  layout.min_value = layout.max_value = tree.Value(0);
  for (uint32_t node = 0; node < n; ++node) {
    layout.values[node] = tree.Value(node);
    layout.parents[node] = tree.Parent(node);
    layout.min_value = std::min(layout.min_value, layout.values[node]);
    layout.max_value = std::max(layout.max_value, layout.values[node]);
  }

  // Scratch reused for every node's child partition.
  std::vector<double> masses;
  std::vector<uint32_t> roots;
  for (uint32_t node = 0; node < n; ++node) {
    if (tree.Parent(node) == kNoParent) roots.push_back(node);
  }

  // The virtual root: components share the unit square by subtree mass.
  {
    masses.clear();
    double total = 0.0;
    for (const uint32_t root : roots) {
      masses.push_back(static_cast<double>(index.SubtreeMemberCount(root)));
      total += masses.back();
    }
    const ChildSlice slice{roots.data(), masses.data()};
    AssignChildRects(slice, 0, static_cast<uint32_t>(roots.size()),
                     LandRect{0.0, 0.0, 1.0, 1.0}, total, &layout.rects);
  }

  // Preorder descent with an explicit node stack — no call recursion
  // over tree depth, so chain-heavy trees are safe.
  std::vector<uint32_t> stack;
  stack.reserve(n);
  for (size_t i = roots.size(); i-- > 0;) stack.push_back(roots[i]);
  while (!stack.empty()) {
    const uint32_t node = stack.back();
    stack.pop_back();
    layout.paint_order.push_back(node);
    const MemberRange children = index.Children(node);
    if (children.size() == 0) continue;

    const double node_mass =
        static_cast<double>(index.SubtreeMemberCount(node));
    masses.clear();
    double child_mass = 0.0;
    for (const uint32_t child : children) {
      masses.push_back(static_cast<double>(index.SubtreeMemberCount(child)));
      child_mass += masses.back();
    }
    // The annulus: children squeeze into an inner rect whose area share
    // is their mass share, so the parent keeps land proportional to its
    // own member count around them.
    const LandRect inner =
        ScaleToAreaFraction(layout.rects[node], child_mass / node_mass);
    const ChildSlice slice{children.begin(), masses.data()};
    AssignChildRects(slice, 0, children.size(), inner, child_mass,
                     &layout.rects);
    for (uint32_t i = children.size(); i-- > 0;) stack.push_back(children[i]);
  }
  return layout;
}

}  // namespace graphscape
