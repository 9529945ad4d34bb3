// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "community/roles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/graph_algos.h"
#include "metrics/kcore.h"
#include "metrics/triangles.h"

namespace graphscape {

const char* RoleName(VertexRole role) {
  switch (role) {
    case VertexRole::kHub:
      return "hub";
    case VertexRole::kDense:
      return "dense";
    case VertexRole::kPeriphery:
      return "periphery";
    case VertexRole::kWhisker:
      return "whisker";
    case VertexRole::kBackground:
      return "background";
  }
  return "background";
}

Rgb RoleColor(VertexRole role) {
  switch (role) {
    case VertexRole::kHub:
      return Rgb{46, 160, 67};  // green summit
    case VertexRole::kDense:
      return Rgb{58, 110, 220};  // blue band
    case VertexRole::kPeriphery:
      return Rgb{214, 57, 57};  // red slope
    case VertexRole::kWhisker:
      return Rgb{229, 192, 46};  // yellow fringe
    case VertexRole::kBackground:
      return Rgb{150, 150, 150};
  }
  return Rgb{150, 150, 150};
}

RoleFeatureMatrix RecursiveFeatures(const Graph& g,
                                    const RoleFeatureOptions& options) {
  const uint32_t n = g.NumVertices();
  uint32_t num_features = kBaseRoleFeatures;
  for (uint32_t level = 0; level < options.depth; ++level) num_features *= 3;

  RoleFeatureMatrix m;
  m.num_vertices = n;
  m.num_features = num_features;
  m.values.assign(static_cast<size_t>(n) * num_features, 0.0);
  if (n == 0) return m;

  const ParallelOptions parallel{options.num_threads, /*grain=*/512};
  const std::vector<uint32_t> triangles = VertexTriangleCounts(g);

  // Base block. Egonet internal edges = deg + triangles (every edge
  // among N(v) closes a triangle through v); boundary = degree mass of
  // the egonet minus both endpoints of each internal edge.
  ParallelFor(0, n, parallel, [&](uint64_t u) {
    const auto v = static_cast<VertexId>(u);
    const double deg = g.Degree(v);
    const double tri = triangles[v];
    double neighbor_degree = 0.0;
    for (const VertexId w : g.Neighbors(v)) neighbor_degree += g.Degree(w);
    const double internal = deg + tri;
    double* row = &m.values[u * num_features];
    row[0] = deg;
    row[1] = tri;
    row[2] = deg >= 2.0 ? 2.0 * tri / (deg * (deg - 1.0)) : 0.0;
    row[3] = internal;
    row[4] = (deg + neighbor_degree) - 2.0 * internal;
  });

  // Recursive widening: level L fills columns [width, 3 * width) with the
  // neighbor means and sums of columns [0, width). Each level reads only
  // already-final columns, so the pass is a pure function of the index.
  uint32_t width = kBaseRoleFeatures;
  for (uint32_t level = 0; level < options.depth; ++level) {
    ParallelFor(0, n, parallel, [&](uint64_t u) {
      const auto v = static_cast<VertexId>(u);
      double* row = &m.values[u * num_features];
      double* mean = row + width;
      double* sum = row + 2 * static_cast<size_t>(width);
      for (uint32_t f = 0; f < width; ++f) mean[f] = sum[f] = 0.0;
      for (const VertexId w : g.Neighbors(v)) {
        const double* other = &m.values[static_cast<size_t>(w) * num_features];
        for (uint32_t f = 0; f < width; ++f) sum[f] += other[f];
      }
      const double deg = g.Degree(v);
      if (deg > 0.0)
        for (uint32_t f = 0; f < width; ++f) mean[f] = sum[f] / deg;
    });
    width *= 3;
  }
  return m;
}

RoleMemberships FitRoleMemberships(const Graph& g,
                                   const RoleOptions& options) {
  const RoleFeatureMatrix features = RecursiveFeatures(g, options.features);
  const uint32_t n = features.num_vertices;
  const uint32_t d = features.num_features;
  const uint32_t k = std::min(std::max(1u, options.num_roles), std::max(n, 1u));

  RoleMemberships result;
  result.num_roles = k;
  result.fields.assign(k, std::vector<double>(n, 0.0));
  result.role_of.assign(n, 0);
  if (n == 0) return result;

  // Z-score the columns so degree (huge) cannot drown clustering (unit).
  std::vector<double> z = features.values;
  for (uint32_t f = 0; f < d; ++f) {
    double mean = 0.0;
    for (VertexId v = 0; v < n; ++v) mean += z[static_cast<size_t>(v) * d + f];
    mean /= n;
    double var = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      const double x = z[static_cast<size_t>(v) * d + f] - mean;
      var += x * x;
    }
    const double stddev = std::sqrt(var / n);
    for (VertexId v = 0; v < n; ++v) {
      double& x = z[static_cast<size_t>(v) * d + f];
      x = stddev > 0.0 ? (x - mean) / stddev : 0.0;
    }
  }

  const auto row = [&](VertexId v) { return &z[static_cast<size_t>(v) * d]; };
  const auto sq_dist = [&](const double* a, const double* b) {
    double dist = 0.0;
    for (uint32_t f = 0; f < d; ++f) {
      const double x = a[f] - b[f];
      dist += x * x;
    }
    return dist;
  };

  // k-means++ seeding from the options seed.
  Rng rng(options.seed);
  std::vector<double> centers(static_cast<size_t>(k) * d);
  std::vector<double> nearest(n, std::numeric_limits<double>::max());
  const VertexId first = rng.UniformInt(n);
  std::copy(row(first), row(first) + d, centers.begin());
  for (uint32_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      const double* prev = &centers[(c - 1) * static_cast<size_t>(d)];
      nearest[v] = std::min(nearest[v], sq_dist(row(v), prev));
      total += nearest[v];
    }
    VertexId pick = n - 1;
    if (total > 0.0) {
      double target = rng.UniformDouble() * total;
      for (VertexId v = 0; v < n; ++v) {
        target -= nearest[v];
        if (target <= 0.0) {
          pick = v;
          break;
        }
      }
    } else {
      pick = rng.UniformInt(n);
    }
    std::copy(row(pick), row(pick) + d,
              centers.begin() + c * static_cast<size_t>(d));
  }

  // Lloyd iterations; ties and empty clusters resolve to the lowest id /
  // the old center, so the fit is deterministic.
  std::vector<uint32_t> assign(n, 0);
  std::vector<double> sums(static_cast<size_t>(k) * d);
  std::vector<uint32_t> counts(k);
  for (uint32_t iter = 0; iter < std::max(1u, options.kmeans_iterations);
       ++iter) {
    for (VertexId v = 0; v < n; ++v) {
      uint32_t best = 0;
      double best_dist = sq_dist(row(v), &centers[0]);
      for (uint32_t c = 1; c < k; ++c) {
        const double dist =
            sq_dist(row(v), &centers[c * static_cast<size_t>(d)]);
        if (dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      assign[v] = best;
    }
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (VertexId v = 0; v < n; ++v) {
      ++counts[assign[v]];
      const double* r = row(v);
      double* s = &sums[assign[v] * static_cast<size_t>(d)];
      for (uint32_t f = 0; f < d; ++f) s[f] += r[f];
    }
    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its center
      for (uint32_t f = 0; f < d; ++f)
        centers[c * static_cast<size_t>(d) + f] =
            sums[c * static_cast<size_t>(d) + f] / counts[c];
    }
  }

  // Relabel by descending mean member degree: role 0 = hubbiest cluster.
  std::vector<double> degree_sum(k, 0.0);
  std::fill(counts.begin(), counts.end(), 0u);
  for (VertexId v = 0; v < n; ++v) {
    degree_sum[assign[v]] += g.Degree(v);
    ++counts[assign[v]];
  }
  std::vector<uint32_t> order(k);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const double da = counts[a] > 0 ? degree_sum[a] / counts[a] : -1.0;
    const double db = counts[b] > 0 ? degree_sum[b] / counts[b] : -1.0;
    return da > db;
  });
  std::vector<uint32_t> relabel(k);
  for (uint32_t rank = 0; rank < k; ++rank) relabel[order[rank]] = rank;

  // Membership: nearest-distance ratio, 1 on the assigned cluster.
  constexpr double kEps = 1e-9;
  for (VertexId v = 0; v < n; ++v) {
    result.role_of[v] = relabel[assign[v]];
    const double nearest_dist =
        sq_dist(row(v), &centers[assign[v] * static_cast<size_t>(d)]);
    for (uint32_t c = 0; c < k; ++c) {
      const double dist = sq_dist(row(v), &centers[c * static_cast<size_t>(d)]);
      result.fields[relabel[c]][v] = (nearest_dist + kEps) / (dist + kEps);
    }
  }
  return result;
}

VertexScalarField RoleMembershipField(const RoleMemberships& memberships,
                                      uint32_t role) {
  return VertexScalarField("role" + std::to_string(role) + "_membership",
                           memberships.fields[role]);
}

std::vector<VertexRole> ClassifyRoles(const Graph& g,
                                      const std::vector<VertexId>& community,
                                      const RoleOptions& options) {
  std::vector<VertexRole> roles(g.NumVertices(), VertexRole::kBackground);
  if (community.empty()) return roles;

  const Subgraph sub = InducedSubgraph(g, community);
  const uint32_t n = sub.graph.NumVertices();
  const std::vector<uint32_t> cores = CoreNumbers(sub.graph);
  const uint32_t max_core = *std::max_element(cores.begin(), cores.end());
  double mean_degree = 0.0;
  for (VertexId v = 0; v < n; ++v) mean_degree += sub.graph.Degree(v);
  mean_degree /= n;

  for (VertexId local = 0; local < n; ++local) {
    const double degree = sub.graph.Degree(local);
    VertexRole role;
    // Hub outranks whisker: a star center is 1-core yet unmistakably a
    // hub, so extreme degree is checked before the tree-fringe test.
    if (degree >= options.hub_degree_factor * mean_degree) {
      role = VertexRole::kHub;
    } else if (cores[local] <= 1) {
      role = VertexRole::kWhisker;
    } else if (cores[local] >= options.dense_core_fraction * max_core) {
      role = VertexRole::kDense;
    } else {
      role = VertexRole::kPeriphery;
    }
    roles[sub.to_parent_vertex[local]] = role;
  }
  return roles;
}

double RoleAccuracy(const std::vector<VertexRole>& predicted,
                    const std::vector<VertexRole>& planted) {
  uint32_t total = 0, hits = 0;
  const size_t n = std::min(predicted.size(), planted.size());
  for (size_t v = 0; v < n; ++v) {
    if (planted[v] == VertexRole::kBackground) continue;
    ++total;
    if (predicted[v] == planted[v]) ++hits;
  }
  return total == 0 ? 1.0 : static_cast<double>(hits) / total;
}

}  // namespace graphscape
