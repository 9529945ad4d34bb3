// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "community/roles.h"

#include <algorithm>

#include "graph/graph_algos.h"
#include "metrics/kcore.h"

namespace graphscape {
namespace {

/// ClassifyRoles: hub iff community degree >= factor * community mean.
constexpr double kHubDegreeFactor = 3.5;
/// ClassifyRoles: dense iff community core number >= fraction * max core.
constexpr double kDenseCoreFraction = 0.55;

}  // namespace

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

std::vector<VertexRole> ClassifyRoles(const Graph& g,
                                      const std::vector<VertexId>& community) {
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
    if (degree >= kHubDegreeFactor * mean_degree) {
      role = VertexRole::kHub;
    } else if (cores[local] <= 1) {
      role = VertexRole::kWhisker;
    } else if (cores[local] >= kDenseCoreFraction * max_core) {
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
