// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Local clustering coefficients — the structural fingerprint Table I keys
// its dataset rows by, and a vertex scalar field in its own right (fig10).
//
// cc(v) = 2·t(v) / (deg(v)·(deg(v)−1)) where t(v) is the number of
// triangles through v; vertices of degree < 2 report 0 (the networkx
// convention, so averages are comparable). t(v) comes from
// VertexTriangleCounts' mark passes over degree-ordered forward runs.

#ifndef GRAPHSCAPE_METRICS_CLUSTERING_H_
#define GRAPHSCAPE_METRICS_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

/// cc(v) for every vertex, exact. BIT-IDENTICAL for every thread count:
/// triangle counts come from VertexTriangleCounts (exact integers) and
/// each cc(v) is a pure function of (t(v), deg(v)).
std::vector<double> LocalClusteringCoefficients(
    const Graph& g, const ParallelOptions& options = {});

/// Exact average of cc(v) over all vertices (0 for an empty graph). Only
/// the per-vertex map runs on the pool; the fold is a sequential
/// left-to-right accumulate over v, so the average is bit-identical for
/// every thread count.
double AverageClusteringCoefficient(const Graph& g,
                                    const ParallelOptions& options = {});

/// Transitivity: 3·(#triangles) / (#wedges). Not the same statistic as
/// the average local coefficient — hub-heavy graphs typically score much
/// lower here. 0 if the graph has no wedges.
double GlobalClusteringCoefficient(const Graph& g);

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_CLUSTERING_H_
