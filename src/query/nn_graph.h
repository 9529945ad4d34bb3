// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// k-NN similarity graph over table rows (paper §III-D): the step that
// turns a SQL query result into a graph the terrain pipeline can
// visualize. Each row links to its nearest neighbors in attribute space
// (Euclidean over the selected columns), neighbor lists are unioned into
// an undirected simple graph, and row id == vertex id so table columns
// are directly usable as scalar fields on the result.

#ifndef GRAPHSCAPE_QUERY_NN_GRAPH_H_
#define GRAPHSCAPE_QUERY_NN_GRAPH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"
#include "query/table.h"

namespace graphscape {

struct NnGraphOptions {
  /// Columns entering the distance; empty means all columns.
  std::vector<uint32_t> columns;
  /// Z-score each column first so wide-ranged attributes don't dominate.
  /// Fig. 11 runs raw (false) because its threshold is in data units.
  bool normalize = true;
  /// Nearest neighbors each row nominates (selected by distance
  /// ascending, row id breaking ties); the union is undirected, so
  /// degrees may exceed this.
  uint32_t max_neighbors = 8;
  /// Drop candidate neighbors farther than this (post-normalization
  /// units when `normalize`). A NaN distance never qualifies.
  double distance_threshold = std::numeric_limits<double>::infinity();
};

/// Deterministic in (table, options).
/// The per-row candidate scan is exact (all pairs), O(rows^2 * columns).
Graph BuildNnGraph(const Table& table, const NnGraphOptions& options = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_QUERY_NN_GRAPH_H_
