// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "community/bigclam.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace graphscape {
namespace {

/// Dot products are clamped below so the weight exp(-d)/(1-exp(-d))
/// stays bounded (~19.5 at the clamp) when both rows are near zero.
constexpr double kMinDot = 0.05;

/// Stateless splitmix64-style mix of (seed, v, c) -> [0, 1). Hash-based
/// rather than stream-order so init is a pure function of the vertex id.
double Jitter(uint64_t seed, uint64_t v, uint64_t c) {
  uint64_t x = seed ^ (v * 0x9E3779B97F4A7C15ull) ^
               ((c + 1) * 0xBF58476D1CE4E5B9ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

/// Multi-source BFS: dist[v] = hops to the nearest seed, owner[v] = the
/// seed index that reached v first (seeds enqueued in index order, FIFO,
/// so ties break toward the lower seed index — deterministic).
void NearestSeed(const Graph& g, const std::vector<VertexId>& seeds,
                 std::vector<uint32_t>* dist, std::vector<uint32_t>* owner,
                 std::vector<VertexId>* queue) {
  const uint32_t n = g.NumVertices();
  dist->assign(n, kInvalidVertex);
  owner->assign(n, kInvalidVertex);
  queue->clear();
  for (uint32_t s = 0; s < seeds.size(); ++s) {
    (*dist)[seeds[s]] = 0;
    (*owner)[seeds[s]] = s;
    queue->push_back(seeds[s]);
  }
  for (size_t head = 0; head < queue->size(); ++head) {
    const VertexId u = (*queue)[head];
    for (const VertexId v : g.Neighbors(u)) {
      if ((*dist)[v] != kInvalidVertex) continue;
      (*dist)[v] = (*dist)[u] + 1;
      (*owner)[v] = (*owner)[u];
      queue->push_back(v);
    }
  }
}

/// Farthest-point seeding: seed 0 is the max-degree vertex (ties to the
/// smallest id); each next seed maximizes the distance to all chosen
/// seeds, with unreachable counting as farthest so every component gets
/// a seed before any community shares one.
std::vector<VertexId> FarthestPointSeeds(const Graph& g, uint32_t k) {
  const uint32_t n = g.NumVertices();
  std::vector<VertexId> seeds;
  if (n == 0 || k == 0) return seeds;
  VertexId first = 0;
  for (VertexId v = 1; v < n; ++v)
    if (g.Degree(v) > g.Degree(first)) first = v;
  seeds.push_back(first);
  std::vector<uint32_t> dist, owner;
  std::vector<VertexId> queue;
  queue.reserve(n);
  while (seeds.size() < std::min(k, n)) {
    NearestSeed(g, seeds, &dist, &owner, &queue);
    VertexId best = 0;
    for (VertexId v = 1; v < n; ++v)
      if (dist[v] > dist[best]) best = v;  // kInvalidVertex == farthest
    seeds.push_back(best);
  }
  return seeds;
}

}  // namespace

BigClamAffiliations BigClamFit(const Graph& g, const BigClamOptions& options) {
  const uint32_t n = g.NumVertices();
  const uint32_t k = std::max(1u, options.num_communities);

  BigClamAffiliations result;
  result.num_vertices = n;
  result.num_communities = k;
  result.factors.assign(static_cast<size_t>(n) * k, 0.0);
  if (n == 0) return result;

  // Warm start: each vertex leans 0.6 toward its nearest seed's
  // community, plus a small hash jitter everywhere; seeds start at 1.
  const std::vector<VertexId> seeds = FarthestPointSeeds(g, k);
  std::vector<uint32_t> dist, owner;
  std::vector<VertexId> queue;
  NearestSeed(g, seeds, &dist, &owner, &queue);
  std::vector<double> current = std::move(result.factors);
  for (VertexId v = 0; v < n; ++v) {
    double* row = &current[static_cast<size_t>(v) * k];
    for (uint32_t c = 0; c < k; ++c)
      row[c] = 0.1 * Jitter(options.seed, v, c);
    if (owner[v] != kInvalidVertex) row[owner[v]] += dist[v] == 0 ? 1.0 : 0.6;
  }

  // Jacobi batch ascent: next[u] is a pure function of `current`. All
  // buffers are preallocated — the loop below performs no heap allocation.
  std::vector<double> next(current.size(), 0.0);
  for (uint32_t iter = 0; iter < options.iterations; ++iter) {
    for (VertexId u = 0; u < n; ++u) {
      const double* fu = &current[static_cast<size_t>(u) * k];
      double* out = &next[static_cast<size_t>(u) * k];
      for (uint32_t c = 0; c < k; ++c) out[c] = -options.lambda;
      for (const VertexId v : g.Neighbors(u)) {
        const double* fv = &current[static_cast<size_t>(v) * k];
        double d = 0.0;
        for (uint32_t c = 0; c < k; ++c) d += fu[c] * fv[c];
        if (d < kMinDot) d = kMinDot;
        const double e = std::exp(-d);
        const double w = e / (1.0 - e);
        for (uint32_t c = 0; c < k; ++c) out[c] += w * fv[c];
      }
      for (uint32_t c = 0; c < k; ++c) {
        double f = fu[c] + options.step * out[c];
        if (f < 0.0) f = 0.0;
        if (f > options.max_factor) f = options.max_factor;
        out[c] = f;
      }
    }
    current.swap(next);
  }
  result.factors = std::move(current);
  return result;
}

VertexScalarField CommunityScoreField(const BigClamAffiliations& affiliations,
                                      uint32_t community) {
  const uint32_t n = affiliations.num_vertices;
  std::vector<double> values(n, 0.0);
  double max = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    values[v] = affiliations.At(v, community);
    max = std::max(max, values[v]);
  }
  if (max > 0.0)
    for (double& value : values) value /= max;
  return VertexScalarField("bigclam" + std::to_string(community),
                           std::move(values));
}

}  // namespace graphscape
