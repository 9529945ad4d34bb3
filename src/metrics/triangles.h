// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Triangle counting via degree-ordered forward intersection: each triangle
// {a, b, c} is found exactly once from its lowest-order vertex, and every
// intersection is a merge of two sorted CSR runs — sequential reads only.

#ifndef GRAPHSCAPE_METRICS_TRIANGLES_H_
#define GRAPHSCAPE_METRICS_TRIANGLES_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

/// Total number of triangles in g. Pivot vertices are enumerated in
/// parallel blocks whose integer partials are summed in fixed block
/// order, so the count is EQUAL for every thread count.
uint64_t CountTriangles(const Graph& g, const ParallelOptions& options = {});

/// Per-vertex triangle participation counts. Each lane accumulates into
/// its own n-sized count arena (a triangle's three increments land
/// wherever the pivot's lane is), then the arenas are summed per vertex;
/// integer sums make the result EQUAL for every thread count. At one
/// lane the single arena is the result. Memory: lanes x n uint32.
std::vector<uint32_t> VertexTriangleCounts(const Graph& g,
                                           const ParallelOptions& options = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_TRIANGLES_H_
