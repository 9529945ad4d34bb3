// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// K-Core decomposition — the paper's workhorse vertex scalar field (§III).
//
// Level-synchronous peeling (common/peel_by_level.h): at each level k,
// every vertex whose live degree has fallen to k is peeled, and peeling
// it lowers each surviving neighbor's degree. The peel runs entirely in
// the graph's degree-order view (Graph::ByDegree, built once per graph on
// first use): each demotion writes one random slot of the degree array,
// and with hubs at the low positions those writes share a few cache
// lines. The degree array is the only support array; after the peel it
// holds the core numbers at view positions, mapped back to vertex ids
// once. O(n + m) total, three more uint32 arrays of n (the peel's live
// list and frontier, freed before the output is filled), no heap
// traffic after setup.

#ifndef GRAPHSCAPE_METRICS_KCORE_H_
#define GRAPHSCAPE_METRICS_KCORE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphscape {

/// core[v] = largest k such that v belongs to the k-core.
std::vector<uint32_t> CoreNumbers(const Graph& g);

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_KCORE_H_
