// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/kcore.h"

#include "common/peel_by_level.h"

namespace graphscape {

std::vector<uint32_t> CoreNumbers(const Graph& g) {
  const uint32_t n = g.NumVertices();
  const Graph::DegreeOrder& view = g.ByDegree();
  const uint32_t* const offsets = view.offsets.data();
  const uint32_t* const adjacency = view.adjacency.data();
  // The peel runs at view positions. Degrees double as the live support
  // array; after the peel s[p] is p's degree at the level it was peeled.
  std::vector<uint32_t> s(n);
  for (uint32_t p = 0; p < n; ++p) s[p] = offsets[p + 1] - offsets[p];
  PeelByLevel(&s, [offsets, adjacency](uint32_t p, auto& demote) {
    // Already-peeled neighbors sit at their (lower) peel level, so the
    // floor inside demote skips them.
    for (uint32_t i = offsets[p]; i < offsets[p + 1]; ++i) {
      demote(adjacency[i]);
    }
  });
  std::vector<uint32_t> core(n);
  for (VertexId v = 0; v < n; ++v) core[v] = s[view.rank[v]];
  return core;
}

}  // namespace graphscape
