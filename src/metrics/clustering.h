// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Local clustering coefficients — the structural fingerprint Table I keys
// its dataset rows by, and a vertex scalar field in its own right (fig10).
//
// cc(v) = 2·t(v) / (deg(v)·(deg(v)−1)) where t(v) is the number of
// triangles through v; vertices of degree < 2 report 0 (the networkx
// convention, so averages are comparable). The exact path reuses the
// degree-ordered CSR intersection kernel behind VertexTriangleCounts —
// O(Σ deg²) worst case, sequential sorted-run merges in practice. The
// sampled path bounds that cost for huge graphs: it computes cc exactly
// on a uniform without-replacement vertex sample, an unbiased estimator
// of the exact average.

#ifndef GRAPHSCAPE_METRICS_CLUSTERING_H_
#define GRAPHSCAPE_METRICS_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
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

/// Unbiased estimate of AverageClusteringCoefficient from cc computed
/// exactly on `num_samples` vertices drawn uniformly without replacement
/// (partial Fisher–Yates). num_samples >= NumVertices() degrades to the
/// exact average.
double SampledAverageClusteringCoefficient(const Graph& g,
                                           uint32_t num_samples, Rng* rng);

/// Transitivity: 3·(#triangles) / (#wedges). Not the same statistic as
/// the average local coefficient — hub-heavy graphs typically score much
/// lower here. 0 if the graph has no wedges.
double GlobalClusteringCoefficient(const Graph& g);

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_CLUSTERING_H_
