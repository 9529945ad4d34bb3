// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/ktruss.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/peel_by_level.h"
#include "graph/edge_index.h"
#include "graph/intersect.h"

namespace graphscape {

std::vector<std::pair<VertexId, VertexId>> EdgeList(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(g.NumEdges());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

namespace {

// Support = triangles per edge; one independent count-only sorted-run
// intersection per edge (SIMD/galloping, no callback), so the parallel
// variant reuses this body verbatim.
std::vector<uint32_t> CountSupport(const Graph& g, const EdgeIndex& index,
                                   const ParallelOptions& options) {
  std::vector<uint32_t> support(index.NumEdges(), 0);
  ParallelFor(0, support.size(), options, [&](uint64_t e) {
    support[e] = CountCommonNeighbors(g, index.U(static_cast<uint32_t>(e)),
                                      index.V(static_cast<uint32_t>(e)));
  });
  return support;
}

// The peel proper, after the support-counting pass. Order-serial: each
// peel demotes surviving edges, which decides who peels next.
std::vector<uint32_t> PeelBySupport(const Graph& g, const EdgeIndex& index,
                                    std::vector<uint32_t> support) {
  // Set when an edge is processed, not when it is queued: a queued edge
  // still closes its triangles until its own turn comes.
  std::vector<char> peeled(index.NumEdges(), 0);
  PeelByLevel(&support, [&](uint32_t e, auto& demote) {
    peeled[e] = 1;
    const VertexId u = index.U(e), v = index.V(e);
    // w's slot in u's run is edge {u, w}, its slot in v's run is {v, w}.
    ForEachCommonSlot(g, u, v, [&](uint32_t su, uint32_t sv) {
      const uint32_t e1 = index.EdgeAtSlot(su);
      const uint32_t e2 = index.EdgeAtSlot(sv);
      // The triangle {u, v, w} only still supports e1/e2 if neither has
      // been peeled away already.
      if (!peeled[e1] && !peeled[e2]) {
        demote(e1);
        demote(e2);
      }
    });
  });
  for (uint32_t& s : support) s += 2;  // truss = peel level + 2
  return support;
}

}  // namespace

std::vector<uint32_t> TrussNumbers(const Graph& g) {
  const EdgeIndex index(g);
  return PeelBySupport(g, index, CountSupport(g, index, {1, 0}));
}

std::vector<uint32_t> TrussNumbersParallel(const Graph& g,
                                           const ParallelOptions& options) {
  const EdgeIndex index(g);
  return PeelBySupport(g, index, CountSupport(g, index, options));
}

}  // namespace graphscape
