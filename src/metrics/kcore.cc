// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/kcore.h"

#include "common/peel_by_level.h"

namespace graphscape {

std::vector<uint32_t> CoreNumbers(const Graph& g) {
  const uint32_t n = g.NumVertices();
  // Degrees double as the live support array; after the peel core[v] is
  // v's degree at the level it was peeled.
  std::vector<uint32_t> core(n);
  for (uint32_t v = 0; v < n; ++v) core[v] = g.Degree(v);
  PeelByLevel(&core, [&g](uint32_t v, auto& demote) {
    // Already-peeled neighbors sit at their (lower) peel level, so the
    // floor inside demote skips them.
    for (const VertexId u : g.Neighbors(v)) demote(u);
  });
  return core;
}

}  // namespace graphscape
