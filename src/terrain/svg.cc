// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "terrain/svg.h"

#include <cstdio>

namespace graphscape {
namespace {

// One decimal place keeps multi-megabyte node-link files in check
// without visible quantization at figure sizes.
void WriteSvgHeader(std::FILE* f, double width, double height) {
  std::fprintf(f,
               "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.1f\" "
               "height=\"%.1f\" viewBox=\"0 0 %.1f %.1f\">\n",
               width, height, width, height);
  std::fprintf(f, "<rect width=\"%.1f\" height=\"%.1f\" fill=\"white\"/>\n",
               width, height);
}

}  // namespace

bool WriteNodeLinkSvg(const Graph& g, const Positions& positions,
                      const std::vector<Rgb>& colors, const std::string& path,
                      double size, double node_radius) {
  if (positions.size() != g.NumVertices() || colors.size() != g.NumVertices())
    return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  WriteSvgHeader(f, size, size);

  std::fprintf(f, "<g stroke=\"#9ca3af\" stroke-width=\"0.3\" "
                  "stroke-opacity=\"0.45\">\n");
  const std::vector<VertexId>& sources = g.EdgeSources();
  const std::vector<VertexId>& targets = g.EdgeTargets();
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const VertexId u = sources[e], v = targets[e];
    std::fprintf(f,
                 "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\"/>\n",
                 positions[u].x * size, positions[u].y * size,
                 positions[v].x * size, positions[v].y * size);
  }
  std::fprintf(f, "</g>\n");

  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::fprintf(f,
                 "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.2f\" "
                 "fill=\"rgb(%u,%u,%u)\"/>\n",
                 positions[v].x * size, positions[v].y * size, node_radius,
                 static_cast<unsigned>(colors[v].r),
                 static_cast<unsigned>(colors[v].g),
                 static_cast<unsigned>(colors[v].b));
  }
  std::fprintf(f, "</svg>\n");
  return std::fclose(f) == 0;
}

bool WriteTreemapSvg(const TerrainLayout& layout,
                     const std::vector<Rgb>& colors, const std::string& path) {
  if (colors.size() != layout.NumNodes()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double size = 720.0;
  WriteSvgHeader(f, size, size);
  for (const uint32_t node : layout.paint_order) {
    const LandRect& rect = layout.rects[node];
    std::fprintf(f,
                 "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" "
                 "height=\"%.1f\" fill=\"rgb(%u,%u,%u)\" "
                 "stroke=\"#1f2937\" stroke-width=\"0.4\"/>\n",
                 rect.x0 * size, rect.y0 * size, rect.Width() * size,
                 rect.Height() * size, static_cast<unsigned>(colors[node].r),
                 static_cast<unsigned>(colors[node].g),
                 static_cast<unsigned>(colors[node].b));
  }
  std::fprintf(f, "</svg>\n");
  return std::fclose(f) == 0;
}

}  // namespace graphscape
