// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/pagerank.h"

#include <cmath>

namespace graphscape {

std::vector<double> PageRank(const Graph& g, const PageRankOptions& options) {
  return PageRankParallel(g, options, {1, 0});
}

std::vector<double> PageRankParallel(const Graph& g,
                                     const PageRankOptions& options,
                                     const ParallelOptions& parallel) {
  const uint32_t n = g.NumVertices();
  if (n == 0) return {};
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n, 0.0);
  std::vector<double> share(n, 0.0);
  double* next_data = next.data();
  const double* share_data = share.data();

  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (uint32_t v = 0; v < n; ++v) {
      const uint32_t d = g.Degree(v);
      if (d == 0) {
        dangling += rank[v];
      } else {
        share[v] = options.damping * rank[v] / d;
      }
    }
    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling * inv_n;
    // next[u] sums its neighbours' shares over u's sorted CSR run: one
    // term per neighbour in ascending order, so each sum is the same for
    // every lane count, and the u's are independent.
    ParallelFor(0, n, parallel, [&, base](uint64_t u) {
      double acc = base;
      for (const VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
        acc += share_data[v];
      }
      next_data[u] = acc;
    });
    double delta = 0.0;
    for (uint32_t v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    next_data = next.data();
    if (delta < options.tolerance) break;
  }
  return rank;
}

}  // namespace graphscape
