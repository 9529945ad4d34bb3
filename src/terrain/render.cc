// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "terrain/render.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace graphscape {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr Rgb kSeaColor{30, 58, 95};
constexpr Rgb kSkyColor{255, 255, 255};
// Peak height relative to the field extent.
constexpr double kHeightScale = 0.22;

inline Rgb Shade(Rgb color, double factor) {
  const auto channel = [factor](uint8_t c) {
    return static_cast<uint8_t>(
        std::min(std::max(static_cast<double>(c) * factor, 0.0), 255.0));
  };
  return Rgb{channel(color.r), channel(color.g), channel(color.b)};
}

inline Rgb Lerp(Rgb a, Rgb b, double t) {
  const auto channel = [t](uint8_t x, uint8_t y) {
    return static_cast<uint8_t>(x + (static_cast<double>(y) - x) * t + 0.5);
  };
  return Rgb{channel(a.r, b.r), channel(a.g, b.g), channel(a.b, b.b)};
}

// std::lround without the libm call. x - trunc(x) is exact in binary
// floating point, so the comparison against +-0.5 rounds halves away from
// zero exactly as lround does.
inline int RoundHalfAway(double x) {
  double whole = std::trunc(x);
  const double frac = x - whole;
  if (frac >= 0.5) whole += 1.0;
  if (frac <= -0.5) whole -= 1.0;
  return static_cast<int>(whole);
}

inline Rgb CellColor(const HeightField& field,
                     const std::vector<Rgb>& node_colors, size_t index) {
  const uint32_t node = field.node_at[index];
  if (node == kInvalidSuperNode) return kSeaColor;
  return node < node_colors.size() ? node_colors[node] : Rgb{128, 128, 128};
}

}  // namespace

double NormalizeValue(double value, double min_value, double max_value) {
  if (max_value <= min_value) return 0.5;
  const double t = (value - min_value) / (max_value - min_value);
  return std::min(std::max(t, 0.0), 1.0);
}

uint32_t FourBandIndex(double t) {
  if (t < 0.25) return 0;
  if (t < 0.5) return 1;
  if (t < 0.75) return 2;
  return 3;
}

Rgb FourBandColor(double t) {
  static constexpr Rgb kBands[4] = {
      Rgb{59, 130, 246},   // blue
      Rgb{46, 166, 76},    // green
      Rgb{250, 204, 21},   // yellow
      Rgb{220, 38, 38},    // red
  };
  return kBands[FourBandIndex(t)];
}

Rgb ContinuousColor(double t) {
  t = std::min(std::max(t, 0.0), 1.0);
  static constexpr Rgb kStops[4] = {
      Rgb{59, 130, 246},
      Rgb{46, 166, 76},
      Rgb{250, 204, 21},
      Rgb{220, 38, 38},
  };
  const double scaled = t * 3.0;
  const uint32_t lo = std::min(static_cast<uint32_t>(scaled), 2u);
  return Lerp(kStops[lo], kStops[lo + 1], scaled - lo);
}

std::vector<Rgb> HeightColors(const SuperTree& tree) {
  const uint32_t n = tree.NumNodes();
  std::vector<Rgb> colors(n);
  double min_value = 0.0, max_value = 0.0;
  if (n > 0) min_value = max_value = tree.Value(0);
  for (uint32_t node = 0; node < n; ++node) {
    min_value = std::min(min_value, tree.Value(node));
    max_value = std::max(max_value, tree.Value(node));
  }
  for (uint32_t node = 0; node < n; ++node) {
    colors[node] =
        FourBandColor(NormalizeValue(tree.Value(node), min_value, max_value));
  }
  return colors;
}

std::vector<Rgb> SuperNodeColors(const SuperTree& tree,
                                 const std::vector<double>& element_values) {
  const uint32_t n = tree.NumNodes();
  std::vector<Rgb> colors(n, Rgb{128, 128, 128});
  if (element_values.size() != tree.NumElements() || n == 0) return colors;
  std::vector<double> sum(n, 0.0);
  for (uint32_t e = 0; e < tree.NumElements(); ++e)
    sum[tree.NodeOf(e)] += element_values[e];
  double min_mean = 0.0, max_mean = 0.0;
  bool first = true;
  for (uint32_t node = 0; node < n; ++node) {
    sum[node] /= std::max(1u, tree.MemberCount(node));
    if (first || sum[node] < min_mean) min_mean = sum[node];
    if (first || sum[node] > max_mean) max_mean = sum[node];
    first = false;
  }
  for (uint32_t node = 0; node < n; ++node)
    colors[node] =
        FourBandColor(NormalizeValue(sum[node], min_mean, max_mean));
  return colors;
}

Image RenderOblique(const HeightField& field,
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

  // The rotation's four products per axis: u*cos_a, u*sin_a per column,
  // v*sin_a, v*cos_a per row, each rounded exactly as the per-cell
  // expression rounds it.
  const uint32_t fw = field.width, fh = field.height;
  std::vector<double> axis(2 * (static_cast<size_t>(fw) + fh));
  double* const u_cos = axis.data();
  double* const u_sin = u_cos + fw;
  double* const v_sin = u_sin + fw;
  double* const v_cos = v_sin + fh;
  const double inv_w = 1.0 / fw, inv_h = 1.0 / fh;
  for (uint32_t x = 0; x < fw; ++x) {
    const double u = (x + 0.5) * inv_w - 0.5;
    u_cos[x] = u * cos_a;
    u_sin[x] = u * sin_a;
  }
  for (uint32_t y = 0; y < fh; ++y) {
    const double v = (y + 0.5) * inv_h - 0.5;
    v_sin[y] = v * sin_a;
    v_cos[y] = v * cos_a;
  }

  // Depth order by counting-sorting cells into buckets of their rotated
  // "toward the viewer" coordinate (larger = nearer), cell index order
  // within a bucket. Items pack (y << 32 | x).
  const size_t cells = static_cast<size_t>(fw) * fh;
  const uint32_t num_buckets = 2 * std::max(fw, fh);
  const auto bucket_of = [&](uint32_t x, uint32_t y) {
    const double vr = u_sin[x] + v_cos[y];
    const double t = (vr + std::sqrt(2.0) * 0.5) / std::sqrt(2.0);
    return std::min(static_cast<uint32_t>(t * num_buckets), num_buckets - 1);
  };
  std::vector<uint32_t> bucket_start(num_buckets + 1, 0);
  for (uint32_t y = 0; y < fh; ++y)
    for (uint32_t x = 0; x < fw; ++x) ++bucket_start[bucket_of(x, y) + 1];
  for (uint32_t b = 0; b < num_buckets; ++b)
    bucket_start[b + 1] += bucket_start[b];
  std::vector<uint64_t> order(cells);
  for (uint32_t y = 0; y < fh; ++y)
    for (uint32_t x = 0; x < fw; ++x)
      order[bucket_start[bucket_of(x, y)]++] =
          static_cast<uint64_t>(y) << 32 | x;

  // Column width that leaves no holes after rotation.
  const int half_col = static_cast<int>(
      std::ceil(scale * std::max(inv_w, inv_h) * 0.75)) + 1;

  // Walk the depth order front to back. Each cell paints a column
  // footprint, and a pixel keeps its FIRST writer here, which is the
  // last writer of a back-to-front painter: the bytes are the painter's.
  // `written` (column-major) marks every final pixel; `covered[px]` is a
  // run of rows of column px all written, skipped without reading the
  // mask, and a cell whose footprint lies inside the runs is rejected
  // before it is shaded. Coverage is tracked by the mask, never by
  // colour, since node_colors may contain the sky colour.
  const int img_w = static_cast<int>(image.width);
  const int img_h = static_cast<int>(image.height);
  std::vector<uint8_t> written(image.pixels.size(), 0);
  struct Span {
    int lo, hi;
  };
  std::vector<Span> covered(image.width, Span{img_h, -1});

  for (size_t idx = cells; idx-- > 0;) {
    const uint32_t x = static_cast<uint32_t>(order[idx]);
    const uint32_t y = static_cast<uint32_t>(order[idx] >> 32);
    const size_t i = static_cast<size_t>(y) * fw + x;
    const double ur = u_cos[x] - v_sin[y];
    const double vr = u_sin[x] + v_cos[y];
    const double h_norm =
        range > 0.0 ? (field.height_at[i] - field.sea_level) / range : 0.0;

    const double sx = cx + ur * scale;
    const double base_y = cy + vr * scale * sin_e;
    const double top_y = base_y - h_norm * kHeightScale * scale * cos_e;

    const int ix = RoundHalfAway(sx);
    const int iy_base = RoundHalfAway(base_y);
    const int iy_top = std::min(RoundHalfAway(top_y), iy_base);
    const int px0 = std::max(ix - half_col, 0);
    const int px1 = std::min(ix + half_col, img_w - 1);
    const int py0 = std::max(iy_top, 0);
    const int py1 = std::min(iy_base, img_h - 1);
    if (px0 > px1 || py0 > py1) continue;  // off-screen
    const auto final_in = [&](int px) {
      return covered[px].lo <= py0 && py1 <= covered[px].hi;
    };
    int first_px = px0;
    while (first_px <= px1 && final_in(first_px)) ++first_px;
    if (first_px > px1) continue;  // hidden behind nearer cells

    // Slope shading: compare against the next cell along +x in field
    // space (a fixed light direction keeps renders deterministic).
    double shade = 1.0;
    if (x + 1 < fw && range > 0.0) {
      const double dh = (field.height_at[i] - field.height_at[i + 1]) / range;
      shade = std::min(std::max(1.0 + dh * 2.0, 0.55), 1.25);
    }
    const Rgb color = Shade(CellColor(field, node_colors, i), shade);
    const Rgb cliff = Shade(color, 0.62);

    for (int px = first_px; px <= px1; ++px) {
      if (final_in(px)) continue;
      Span& span = covered[px];
      uint8_t* const column = written.data() + static_cast<size_t>(px) * img_h;
      Rgb* const pixels = image.pixels.data() + px;
      // The top few pixels read as the plateau surface, the rest as the
      // darker cliff face.
      const auto paint = [&](int py) {
        if (column[py]) return;
        column[py] = 1;
        pixels[static_cast<size_t>(py) * img_w] =
            py - iy_top <= 1 ? color : cliff;
      };
      const int above_end = std::min(py1, span.lo - 1);
      for (int py = py0; py <= above_end; ++py) paint(py);
      for (int py = std::max({py0, span.hi + 1, above_end + 1}); py <= py1;
           ++py)
        paint(py);

      // [py0, py1] is now written: join it to the run if they touch,
      // otherwise keep the longer of the two.
      if (py0 <= span.hi + 1 && py1 >= span.lo - 1) {
        span = Span{std::min(span.lo, py0), std::max(span.hi, py1)};
      } else if (py1 - py0 > span.hi - span.lo) {
        span = Span{py0, py1};
      }
    }
  }
  return image;
}

std::string EncodePpm(const Image& image) {
  static_assert(sizeof(Rgb) == 3, "Rgb must be packed for PPM output");
  char header[64];
  const int header_len = std::snprintf(header, sizeof(header),
                                       "P6\n%u %u\n255\n", image.width,
                                       image.height);
  std::string out;
  out.reserve(static_cast<size_t>(header_len) + image.pixels.size() * 3);
  out.append(header, static_cast<size_t>(header_len));
  out.append(reinterpret_cast<const char*>(image.pixels.data()),
             image.pixels.size() * 3);
  return out;
}

bool WritePpm(const Image& image, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string bytes = EncodePpm(image);
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = written == bytes.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace graphscape
