// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// PageRank over the undirected graph (each edge walked both ways) by power
// iteration on two flat double arrays. Isolated vertices act as dangling
// nodes: their mass is redistributed uniformly so the vector keeps summing
// to 1.

#ifndef GRAPHSCAPE_METRICS_PAGERANK_H_
#define GRAPHSCAPE_METRICS_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

struct PageRankOptions {
  double damping = 0.85;
  uint32_t max_iterations = 50;
  double tolerance = 1e-10;  ///< L1 change threshold for early exit.
};

std::vector<double> PageRank(const Graph& g,
                             const PageRankOptions& options = {});

/// PageRank with the per-iteration gather parallelized — BIT-IDENTICAL
/// for every thread count. Each iteration writes every vertex's share
/// `damping * rank[v] / deg(v)` once, then next[u] sums its neighbours'
/// shares over u's (sorted) CSR run: the same additions in the same
/// order whatever the width, with u's independent of each other. These
/// are also the terms, in the same order, of the push form (each v
/// scattering its share to its neighbours in ascending v), which
/// tests/parallel_test.cc keeps as the oracle. The dangling-mass and
/// L1-delta folds stay sequential (O(n), and a tree reduction would
/// reorder them). PageRank is this at one lane.
std::vector<double> PageRankParallel(const Graph& g,
                                     const PageRankOptions& options = {},
                                     const ParallelOptions& parallel = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_PAGERANK_H_
