// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "layout/openord_layout.h"

#include <algorithm>
#include <vector>

#include "graph/graph_builder.h"
#include "layout/spring_layout.h"

namespace graphscape {
namespace {

struct CoarseLevel {
  Graph graph;
  /// Fine vertex -> coarse vertex of the NEXT level.
  std::vector<VertexId> coarse_of;
};

// Deterministic maximal matching by ascending vertex id: each unmatched
// vertex grabs its first unmatched neighbor. Matched pairs and leftover
// singletons both become coarse vertices.
CoarseLevel Coarsen(const Graph& g) {
  const uint32_t n = g.NumVertices();
  CoarseLevel level;
  level.coarse_of.assign(n, kInvalidVertex);
  uint32_t next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (level.coarse_of[v] != kInvalidVertex) continue;
    level.coarse_of[v] = next;
    for (const VertexId u : g.Neighbors(v)) {
      if (level.coarse_of[u] == kInvalidVertex) {
        level.coarse_of[u] = next;
        break;
      }
    }
    ++next;
  }
  GraphBuilder builder(next);
  builder.Reserve(static_cast<size_t>(g.NumEdges()));
  const std::vector<VertexId>& sources = g.EdgeSources();
  const std::vector<VertexId>& targets = g.EdgeTargets();
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const VertexId u = sources[e], v = targets[e];
    builder.AddEdge(level.coarse_of[u], level.coarse_of[v]);
  }
  level.graph = builder.Build();  // drops the self-loops matching creates
  return level;
}

}  // namespace

Positions OpenOrdLayout(const Graph& g, const OpenOrdOptions& options) {
  const uint32_t n = g.NumVertices();
  if (n == 0) return {};

  // Descend: coarsen until small enough, a level cap guarding against
  // graphs where matching stops shrinking (stars collapse slowly).
  std::vector<CoarseLevel> levels;
  const Graph* current = &g;
  for (uint32_t depth = 0;
       depth < options.max_levels &&
       current->NumVertices() > options.min_coarse_vertices;
       ++depth) {
    CoarseLevel level = Coarsen(*current);
    if (level.graph.NumVertices() >= current->NumVertices()) break;
    levels.push_back(std::move(level));
    current = &levels.back().graph;
  }

  // Full spring solve on the coarsest graph.
  SpringLayoutOptions coarse;
  coarse.iterations = options.coarse_iterations;
  coarse.seed = options.seed;
  Positions pos = SpringLayout(*current, coarse);

  // Ascend: project and refine. The matched pair splits with a tiny
  // id-dependent offset so the spring core has a gradient to work with.
  SpringLayoutOptions refine;
  refine.iterations = options.refine_iterations;
  refine.seed = options.seed;
  refine.initial_temperature = 0.02;  // polish, don't re-scatter
  for (size_t li = levels.size(); li-- > 0;) {
    const std::vector<VertexId>& coarse_of = levels[li].coarse_of;
    const Graph& fine_graph = li == 0 ? g : levels[li - 1].graph;
    Positions fine(fine_graph.NumVertices());
    for (VertexId v = 0; v < fine_graph.NumVertices(); ++v) {
      const Point2 base = pos[coarse_of[v]];
      const double off = 1e-4 * static_cast<double>(v % 17);
      // Clamp back into the unit square: the spring core's grid binning
      // (and the documented return contract) require it, and a coarse
      // vertex clamped to an edge would otherwise project outside.
      fine[v] = Point2{std::min(std::max(base.x + off, 0.0), 1.0 - 1e-9),
                       std::min(std::max(base.y - off, 0.0), 1.0 - 1e-9)};
    }
    RefineSpringLayout(fine_graph, refine, &fine);
    pos = std::move(fine);
  }
  return pos;
}

}  // namespace graphscape
