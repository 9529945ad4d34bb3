// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Triangle counting over degree-ordered forward runs: each triangle
// {a, b, c} is found exactly once from its lowest-order vertex u. The
// pivot u marks its forward run in a byte array, and every v in that run
// reads the marks along its own forward run; no two runs are merged.
// Both run on one lane; docs/PARALLELISM.md (*Scaling*) has the audit.

#ifndef GRAPHSCAPE_METRICS_TRIANGLES_H_
#define GRAPHSCAPE_METRICS_TRIANGLES_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphscape {

/// Total number of triangles in g. Memory: the forward runs, plus n
/// bytes of marks.
uint64_t CountTriangles(const Graph& g);

/// Per-vertex triangle participation counts. Memory: the forward runs,
/// plus n bytes of marks and the n counts returned.
std::vector<uint32_t> VertexTriangleCounts(const Graph& g);

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_TRIANGLES_H_
