// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "query/nn_graph.h"

#include <cmath>
#include <numeric>

#include "graph/graph_builder.h"

namespace graphscape {

Graph BuildNnGraph(const Table& table, const NnGraphOptions& options) {
  const uint32_t n = static_cast<uint32_t>(table.NumRows());
  GraphBuilder builder(n);
  if (n == 0) return builder.Build();

  std::vector<uint32_t> columns = options.columns;
  if (columns.empty()) {
    columns.resize(table.NumColumns());
    std::iota(columns.begin(), columns.end(), 0u);
  }
  const uint32_t d = static_cast<uint32_t>(columns.size());

  // Row-major point matrix, z-scored per column when requested (a
  // constant column contributes 0 to every distance either way).
  std::vector<double> points(static_cast<size_t>(n) * d);
  for (uint32_t f = 0; f < d; ++f) {
    const std::vector<double>& column = table.Column(columns[f]);
    double mean = 0.0, stddev = 1.0;
    if (options.normalize) {
      mean = 0.0;
      for (const double x : column) mean += x;
      mean /= n;
      double var = 0.0;
      for (const double x : column) var += (x - mean) * (x - mean);
      stddev = var > 0.0 ? std::sqrt(var / n) : 1.0;
    } else {
      mean = 0.0;
      stddev = 1.0;
    }
    for (uint32_t row = 0; row < n; ++row)
      points[static_cast<size_t>(row) * d + f] = (column[row] - mean) / stddev;
  }

  // Exact per-row selection into preallocated (distance, id) slots —
  // bounded insertion sort ordered by (distance asc, id asc), so the
  // nominee lists are unique.
  const uint32_t k = std::min(options.max_neighbors, n - 1);
  const double threshold_sq =
      options.distance_threshold * options.distance_threshold;
  std::vector<VertexId> nominee(static_cast<size_t>(n) * k, kInvalidVertex);
  std::vector<double> nominee_dist(static_cast<size_t>(n) * k, 0.0);
  for (uint32_t u = 0; k > 0 && u < n; ++u) {
    VertexId* ids = &nominee[static_cast<size_t>(u) * k];
    double* dists = &nominee_dist[static_cast<size_t>(u) * k];
    uint32_t filled = 0;
    const double* pu = &points[static_cast<size_t>(u) * d];
    for (uint32_t v = 0; v < n; ++v) {
      if (v == u) continue;
      const double* pv = &points[static_cast<size_t>(v) * d];
      double dist_sq = 0.0;
      for (uint32_t f = 0; f < d; ++f) {
        const double x = pu[f] - pv[f];
        dist_sq += x * x;
      }
      if (!(dist_sq <= threshold_sq)) continue;  // NaN fails here too
      if (filled == k && dists[k - 1] <= dist_sq) continue;
      uint32_t slot = filled < k ? filled : k - 1;
      while (slot > 0 && dists[slot - 1] > dist_sq) {
        dists[slot] = dists[slot - 1];
        ids[slot] = ids[slot - 1];
        --slot;
      }
      dists[slot] = dist_sq;
      ids[slot] = v;
      if (filled < k) ++filled;
    }
  }

  // Union of nominations; GraphBuilder dedups the mutual pairs.
  for (uint32_t u = 0; u < n; ++u)
    for (uint32_t s = 0; s < k; ++s)
      if (nominee[static_cast<size_t>(u) * k + s] != kInvalidVertex)
        builder.AddEdge(u, nominee[static_cast<size_t>(u) * k + s]);
  return builder.Build();
}

}  // namespace graphscape
