// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/clustering.h"

#include <algorithm>
#include <numeric>

#include "graph/intersect.h"
#include "metrics/triangles.h"

namespace graphscape {

namespace {

double Coefficient(uint64_t triangles, uint64_t degree) {
  if (degree < 2) return 0.0;
  return 2.0 * static_cast<double>(triangles) /
         (static_cast<double>(degree) * static_cast<double>(degree - 1));
}

// Exact triangle count through one vertex: every triangle {v, u, w}
// contributes w to the common-neighbor intersection of two sorted CSR
// runs, and is seen twice (once from each of v's two incident edges in
// it). Count-only, so it rides the SIMD/galloping kernels.
uint64_t TrianglesThrough(const Graph& g, VertexId v) {
  uint64_t twice = 0;
  for (const VertexId u : g.Neighbors(v)) {
    twice += CountCommonNeighbors(g, v, u);
  }
  return twice / 2;
}

}  // namespace

std::vector<double> LocalClusteringCoefficients(
    const Graph& g, const ParallelOptions& options) {
  const std::vector<uint32_t> triangles = VertexTriangleCounts(g, options);
  const uint32_t n = g.NumVertices();
  std::vector<double> cc(n);
  ParallelFor(0, n, options, [&](uint64_t v) {
    cc[v] = Coefficient(triangles[v], g.Degree(static_cast<VertexId>(v)));
  });
  return cc;
}

double AverageClusteringCoefficient(const Graph& g,
                                    const ParallelOptions& options) {
  const uint32_t n = g.NumVertices();
  if (n == 0) return 0.0;
  const std::vector<double> cc = LocalClusteringCoefficients(g, options);
  // Sequential fold in v order, so the thread count cannot reorder the
  // floating-point sum.
  return std::accumulate(cc.begin(), cc.end(), 0.0) / n;
}

double SampledAverageClusteringCoefficient(const Graph& g,
                                           uint32_t num_samples, Rng* rng) {
  const uint32_t n = g.NumVertices();
  if (n == 0) return 0.0;
  const uint32_t k = std::min(num_samples, n);
  if (k == 0) return 0.0;

  // Partial Fisher–Yates: after i swaps, pool[0..i) is a uniform
  // without-replacement sample.
  std::vector<VertexId> pool(n);
  std::iota(pool.begin(), pool.end(), 0u);
  double sum = 0.0;
  for (uint32_t i = 0; i < k; ++i) {
    const uint32_t j = i + rng->UniformInt(n - i);
    std::swap(pool[i], pool[j]);
    const VertexId v = pool[i];
    sum += Coefficient(TrianglesThrough(g, v), g.Degree(v));
  }
  return sum / k;
}

double GlobalClusteringCoefficient(const Graph& g) {
  uint64_t wedges = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t d = g.Degree(v);
    if (d >= 2) wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(CountTriangles(g, {1, 0})) /
         static_cast<double>(wedges);
}

}  // namespace graphscape
