// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Software renderer for terrain height fields — no GPU, no external
// image library; the artifacts are plain binary PPMs CI can diff and
// upload. One projection, RenderOblique — the paper's 3D landscape
// view: the field is rotated by the camera azimuth, tilted by its
// elevation, and drawn as vertical columns (peaks 0.22 of the field
// extent tall) with slope shading along the light direction. Cells are
// walked front to back in depth-bucket order and a pixel keeps its
// first writer; a written mask plus one covered row run per screen
// column skip pixels already final, and cells hidden entirely are
// rejected before shading. The bytes equal those of the classic
// back-to-front heightfield painter (last writer wins), which
// tests/render_oracle_test.cc keeps as the oracle.
//
// Color lives per SUPER NODE, not per pixel: a column is colored by the
// node that owns its footprint pixel. Two node->color mappers cover the
// paper's figures: HeightColors (the four-band elevation scheme of
// Fig. 5 — blue/green/yellow/red, the discretization whose information
// loss the treemap comparison quantifies) and SuperNodeColors (mean of
// an arbitrary element field over each node's members — degree in
// Fig. 10, community id in Fig. 1).

#ifndef GRAPHSCAPE_TERRAIN_RENDER_H_
#define GRAPHSCAPE_TERRAIN_RENDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scalar/super_tree.h"
#include "terrain/terrain_raster.h"

namespace graphscape {

struct Rgb {
  uint8_t r = 0, g = 0, b = 0;

  bool operator==(const Rgb& other) const {
    return r == other.r && g == other.g && b == other.b;
  }
  bool operator!=(const Rgb& other) const { return !(*this == other); }
};

struct Camera {
  double azimuth_deg = 225.0;    ///< rotation of the field around "up"
  double elevation_deg = 42.0;   ///< 90 = top-down, 0 = horizon
};

struct Image {
  uint32_t width = 0;
  uint32_t height = 0;
  std::vector<Rgb> pixels;  ///< row-major

  Rgb At(uint32_t x, uint32_t y) const {
    return pixels[static_cast<size_t>(y) * width + x];
  }
};

/// Clamped (v - min) / (max - min); 0.5 for a degenerate range.
double NormalizeValue(double value, double min_value, double max_value);

/// Which of the four elevation bands t in [0, 1] falls into (0..3).
uint32_t FourBandIndex(double t);

/// The four-band elevation scheme: blue, green, yellow, red.
Rgb FourBandColor(double t);

/// Smooth blue->green->yellow->red ramp (the LaNet-vi style scale).
Rgb ContinuousColor(double t);

/// Four-band color per super node from its normalized scalar.
std::vector<Rgb> HeightColors(const SuperTree& tree);

/// Four-band color per super node from the MEAN of `element_values`
/// (one value per tree element) over the node's members, normalized
/// across nodes. Requires element_values.size() == tree.NumElements().
std::vector<Rgb> SuperNodeColors(const SuperTree& tree,
                                 const std::vector<double>& element_values);

Image RenderOblique(const HeightField& field,
                    const std::vector<Rgb>& node_colors, const Camera& camera,
                    uint32_t width, uint32_t height);

/// Binary PPM (P6) as an in-memory byte string — the TILE verb of the
/// query service ships exactly these bytes as its payload, so the
/// encoding must stay deterministic for a given image.
std::string EncodePpm(const Image& image);

/// Binary PPM (P6). Returns false on I/O failure.
bool WritePpm(const Image& image, const std::string& path);

}  // namespace graphscape

#endif  // GRAPHSCAPE_TERRAIN_RENDER_H_
