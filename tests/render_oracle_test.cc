// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Byte-identity oracle for RenderOblique. PainterOracle is the classic
// back-to-front heightfield painter: every cell, in depth-bucket order
// from the far side, paints its whole column footprint, and each pixel
// ends with its LAST writer. RenderOblique walks the same order front to
// back and keeps each pixel's FIRST writer, skipping pixels already
// final. The two must agree on every byte: over random fields with and
// without sea, node ids beyond the colour table (grey), a colour table
// holding the sky's pure white, every camera clamp and degenerate image
// and field sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "terrain/render.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"

namespace graphscape {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr Rgb kSeaColor{30, 58, 95};
constexpr Rgb kSkyColor{255, 255, 255};
constexpr double kHeightScale = 0.22;  // the renderer's peak height

inline Rgb Shade(Rgb color, double factor) {
  const auto channel = [factor](uint8_t c) {
    return static_cast<uint8_t>(
        std::min(std::max(static_cast<double>(c) * factor, 0.0), 255.0));
  };
  return Rgb{channel(color.r), channel(color.g), channel(color.b)};
}

inline Rgb CellColor(const HeightField& field,
                     const std::vector<Rgb>& node_colors, size_t index) {
  const uint32_t node = field.node_at[index];
  if (node == kInvalidSuperNode) return kSeaColor;
  return node < node_colors.size() ? node_colors[node] : Rgb{128, 128, 128};
}

Image PainterOracle(const HeightField& field,
                    const std::vector<Rgb>& node_colors, const Camera& camera,
                    uint32_t width, uint32_t height) {
  Image image;
  image.width = std::max(width, 1u);
  image.height = std::max(height, 1u);
  image.pixels.assign(static_cast<size_t>(image.width) * image.height,
                      kSkyColor);
  if (field.width == 0 || field.height == 0) return image;

  const double az = camera.azimuth_deg * kPi / 180.0;
  const double el =
      std::min(std::max(camera.elevation_deg, 5.0), 89.0) * kPi / 180.0;
  const double cos_a = std::cos(az), sin_a = std::sin(az);
  const double sin_e = std::sin(el), cos_e = std::cos(el);
  const double range = field.max_value - field.sea_level;

  // Fit the rotated square (diagonal sqrt(2)) plus the tallest column
  // into a 92% viewport box.
  const double vertical_extent = std::sqrt(2.0) * sin_e + kHeightScale * cos_e;
  const double scale = std::min(0.92 * image.width / std::sqrt(2.0),
                                0.92 * image.height / vertical_extent);
  const double cx = image.width * 0.5;
  const double cy = image.height * 0.55;

  // Back-to-front ordering by counting-sorting cells into depth buckets
  // of their rotated "toward the viewer" coordinate.
  const size_t cells = static_cast<size_t>(field.width) * field.height;
  const uint32_t num_buckets = 2 * std::max(field.width, field.height);
  std::vector<uint32_t> bucket_offsets(num_buckets + 1, 0);
  std::vector<uint32_t> bucket_of(cells);
  std::vector<uint32_t> bucket_items(cells);
  const double inv_w = 1.0 / field.width, inv_h = 1.0 / field.height;
  for (size_t i = 0; i < cells; ++i) {
    const double u = ((i % field.width) + 0.5) * inv_w - 0.5;
    const double v = ((i / field.width) + 0.5) * inv_h - 0.5;
    const double vr = u * sin_a + v * cos_a;  // depth: larger = nearer
    const double t = (vr + std::sqrt(2.0) * 0.5) / std::sqrt(2.0);
    bucket_of[i] = std::min(
        static_cast<uint32_t>(t * num_buckets), num_buckets - 1);
    ++bucket_offsets[bucket_of[i] + 1];
  }
  for (uint32_t b = 0; b < num_buckets; ++b)
    bucket_offsets[b + 1] += bucket_offsets[b];
  {
    std::vector<uint32_t> cursor(bucket_offsets.begin(),
                                 bucket_offsets.end() - 1);
    for (size_t i = 0; i < cells; ++i)
      bucket_items[cursor[bucket_of[i]]++] = static_cast<uint32_t>(i);
  }

  // Column width that leaves no holes after rotation.
  const int half_col = static_cast<int>(
      std::ceil(scale * std::max(inv_w, inv_h) * 0.75)) + 1;

  for (size_t idx = 0; idx < cells; ++idx) {
    const uint32_t i = bucket_items[idx];
    const uint32_t x = i % field.width;
    const uint32_t y = i / field.width;
    const double u = (x + 0.5) * inv_w - 0.5;
    const double v = (y + 0.5) * inv_h - 0.5;
    const double ur = u * cos_a - v * sin_a;
    const double vr = u * sin_a + v * cos_a;
    const double h_norm =
        range > 0.0 ? (field.height_at[i] - field.sea_level) / range : 0.0;

    const double sx = cx + ur * scale;
    const double base_y = cy + vr * scale * sin_e;
    const double top_y = base_y - h_norm * kHeightScale * scale * cos_e;

    // Slope shading: compare against the next cell along +x in field
    // space (a fixed light direction keeps renders deterministic).
    double shade = 1.0;
    if (x + 1 < field.width && range > 0.0) {
      const double dh = (field.height_at[i] - field.height_at[i + 1]) / range;
      shade = std::min(std::max(1.0 + dh * 2.0, 0.55), 1.25);
    }
    const Rgb color = Shade(CellColor(field, node_colors, i), shade);
    const Rgb cliff = Shade(color, 0.62);

    const int ix = static_cast<int>(std::lround(sx));
    int iy_top = static_cast<int>(std::lround(top_y));
    const int iy_base = static_cast<int>(std::lround(base_y));
    iy_top = std::min(iy_top, iy_base);
    for (int px = ix - half_col; px <= ix + half_col; ++px) {
      if (px < 0 || px >= static_cast<int>(image.width)) continue;
      for (int py = iy_top; py <= iy_base; ++py) {
        if (py < 0 || py >= static_cast<int>(image.height)) continue;
        // The top few pixels read as the plateau surface, the rest as
        // the darker cliff face.
        const bool plateau = py - iy_top <= 1;
        image.pixels[static_cast<size_t>(py) * image.width + px] =
            plateau ? color : cliff;
      }
    }
  }
  return image;
}

constexpr uint32_t kNumColors = 40;

// Random land heights in [min_value, max_value] = [1, 9]; node ids in
// [0, kNumColors + 10), so about a fifth of the cells are beyond the
// colour table and render grey. With sea, about a third of the cells
// are sea.
HeightField RandomField(uint32_t width, uint32_t height, uint64_t seed,
                        bool with_sea) {
  Rng rng(seed);
  HeightField field;
  field.width = width;
  field.height = height;
  field.min_value = 1.0;
  field.max_value = 9.0;
  field.sea_level = 0.6;
  const size_t cells = static_cast<size_t>(width) * height;
  field.height_at.resize(cells);
  field.node_at.resize(cells);
  for (size_t i = 0; i < cells; ++i) {
    if (with_sea && rng.UniformInt(3) == 0) {
      field.height_at[i] = field.sea_level;
      field.node_at[i] = kInvalidSuperNode;
    } else {
      field.height_at[i] = 1.0 + 8.0 * rng.UniformDouble();
      field.node_at[i] = rng.UniformInt(kNumColors + 10);
    }
  }
  return field;
}

// Random colours, every fifth one pure white: the sky colour, so a
// render that tracked coverage by colour would let white land be
// overdrawn from behind.
std::vector<Rgb> ColorTable() {
  Rng rng(99);
  std::vector<Rgb> colors(kNumColors, kSkyColor);
  for (uint32_t c = 0; c < kNumColors; ++c) {
    if (c % 5 == 0) continue;
    colors[c].r = static_cast<uint8_t>(rng.UniformInt(256));
    colors[c].g = static_cast<uint8_t>(rng.UniformInt(256));
    colors[c].b = static_cast<uint8_t>(rng.UniformInt(256));
  }
  return colors;
}

testing::AssertionResult SameBytes(const Image& got, const Image& want) {
  if (EncodePpm(got) == EncodePpm(want)) return testing::AssertionSuccess();
  size_t p = 0;
  while (p < got.pixels.size() && p < want.pixels.size() &&
         got.pixels[p] == want.pixels[p]) {
    ++p;
  }
  return testing::AssertionFailure() << "PPM bytes differ at pixel " << p;
}

// Every camera and image size of the sweep, against the painter.
void ExpectPainterBytesEverywhere(const HeightField& field,
                                  const std::vector<Rgb>& colors) {
  const uint32_t kSizes[][2] = {{1, 1}, {97, 33}, {320, 200}, {960, 720}};
  for (const double azimuth : {0.0, 45.0, 90.0, 225.0, 359.0}) {
    for (const double elevation : {2.0, 5.0, 42.0, 89.0, 95.0}) {
      for (const auto& size : kSizes) {
        Camera camera;
        camera.azimuth_deg = azimuth;
        camera.elevation_deg = elevation;
        const uint32_t w = size[0], h = size[1];
        const Image got = RenderOblique(field, colors, camera, w, h);
        const Image want = PainterOracle(field, colors, camera, w, h);
        EXPECT_TRUE(SameBytes(got, want))
            << StrPrintf("az %g el %g image %ux%u", azimuth, elevation, w, h);
      }
    }
  }
}

TEST(RenderOracleTest, RandomFieldWithoutSeaMatchesThePainter) {
  ExpectPainterBytesEverywhere(RandomField(37, 211, 1, false), ColorTable());
}

TEST(RenderOracleTest, RandomFieldWithSeaMatchesThePainter) {
  ExpectPainterBytesEverywhere(RandomField(37, 211, 2, true), ColorTable());
}

TEST(RenderOracleTest, SingleCellFieldsMatchThePainter) {
  ExpectPainterBytesEverywhere(RandomField(1, 1, 3, false), ColorTable());
  ExpectPainterBytesEverywhere(RandomField(1, 1, 4, true), ColorTable());
}

TEST(RenderOracleTest, EmptyFieldIsAllSky) {
  const HeightField empty;
  ExpectPainterBytesEverywhere(empty, ColorTable());
  const Image image = RenderOblique(empty, ColorTable(), Camera{}, 97, 33);
  for (const Rgb& pixel : image.pixels) EXPECT_EQ(pixel, kSkyColor);
}

TEST(RenderOracleTest, AllWhiteLandMatchesThePainter) {
  // Every node white: the finished image is mostly sky-coloured, so only
  // a written mask can tell final pixels from unpainted ones.
  const std::vector<Rgb> white(kNumColors + 10, kSkyColor);
  Camera camera;
  const HeightField field = RandomField(64, 48, 5, true);
  const Image got = RenderOblique(field, white, camera, 320, 200);
  EXPECT_TRUE(SameBytes(got, PainterOracle(field, white, camera, 320, 200)));
}

TEST(RenderOracleTest, RasterizedTerrainMatchesThePainter) {
  // A real plateau landscape: the K-Core terrain of a scale-free graph,
  // where nearly every column is hidden behind nearer ones.
  Rng rng(42);
  const Graph g = BarabasiAlbert(2000, 4, &rng);
  const SuperTree tree(BuildVertexScalarTree(
      g, VertexScalarField::FromCounts("KC", CoreNumbers(g))));
  RasterOptions raster;
  raster.width = raster.height = 160;
  const HeightField field = RasterizeTerrain(BuildTerrainLayout(tree), raster);
  const std::vector<Rgb> colors = HeightColors(tree);
  for (const double azimuth : {0.0, 45.0, 225.0, 359.0}) {
    Camera camera;
    camera.azimuth_deg = azimuth;
    const Image got = RenderOblique(field, colors, camera, 480, 360);
    const Image want = PainterOracle(field, colors, camera, 480, 360);
    EXPECT_TRUE(SameBytes(got, want)) << "azimuth " << azimuth;
  }
}

}  // namespace
}  // namespace graphscape
