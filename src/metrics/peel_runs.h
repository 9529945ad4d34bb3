// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The live runs of the K-Truss and (3,4)-nucleus peels: each vertex's
// {neighbour, edge id} pairs, or each edge's {third vertex, triangle id}
// pairs, sorted by vertex and holding only items not yet peeled, plus
// tombstones in runs that are searched rather than walked.

#ifndef GRAPHSCAPE_METRICS_PEEL_RUNS_H_
#define GRAPHSCAPE_METRICS_PEEL_RUNS_H_

#include <cstdint>

#include "graph/graph.h"

namespace graphscape {
namespace internal {

// Item `id` joins vertex w to the run's owner (a vertex or an edge).
struct Pair {
  VertexId w;
  uint32_t id;
};

// The id a peeled item's tombstone carries in a searched run.
inline constexpr uint32_t kPeeled = ~0u;

// Compacts the run [lo, hi) in place to its live pairs other than item
// id's, in order, and returns the new end. visit(pair, live) sees every
// pair. The loop does not branch on liveness: a walk meets items peeled
// since its run was last compacted in no predictable order.
template <typename Visit>
Pair* KeepLive(Pair* lo, Pair* hi, uint32_t id, Visit&& visit) {
  Pair* out = lo;
  for (const Pair* p = lo; p != hi; ++p) {
    const Pair pair = *p;
    const bool live = pair.id != id && pair.id != kPeeled;
    *out = pair;
    out += live;
    visit(pair, live);
  }
  return out;
}

}  // namespace internal
}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_PEEL_RUNS_H_
