// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/clustering.h"

#include <numeric>

#include "metrics/triangles.h"

namespace graphscape {

namespace {

double Coefficient(uint64_t triangles, uint64_t degree) {
  if (degree < 2) return 0.0;
  return 2.0 * static_cast<double>(triangles) /
         (static_cast<double>(degree) * static_cast<double>(degree - 1));
}

}  // namespace

std::vector<double> LocalClusteringCoefficients(const Graph& g) {
  const std::vector<uint32_t> triangles = VertexTriangleCounts(g);
  std::vector<double> cc(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    cc[v] = Coefficient(triangles[v], g.Degree(v));
  }
  return cc;
}

double AverageClusteringCoefficient(const Graph& g) {
  const uint32_t n = g.NumVertices();
  if (n == 0) return 0.0;
  const std::vector<double> cc = LocalClusteringCoefficients(g);
  return std::accumulate(cc.begin(), cc.end(), 0.0) / n;
}

}  // namespace graphscape
