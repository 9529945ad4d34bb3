// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/triangles.h"

#include <numeric>

namespace graphscape {
namespace {

// Degree order with id tie-break; orienting edges low -> high makes the
// out-degree of every vertex O(sqrt(m)) on any graph.
inline bool Before(const Graph& g, VertexId a, VertexId b) {
  const uint32_t da = g.Degree(a), db = g.Degree(b);
  return da < db || (da == db && a < b);
}

// The degree-oriented DAG in CSR form: fwd run of u = neighbors v with u
// Before v, ascending by id. Every triangle {u, v, w} has exactly one
// source — its degree-least vertex u — and appears exactly once as w ∈
// fwd(u) ∩ fwd(v) for v ∈ fwd(u).
struct ForwardAdjacency {
  std::vector<uint32_t> offsets;  // n + 1
  std::vector<VertexId> targets;  // m, plus one slot the copy writes past

  const VertexId* Begin(VertexId u) const {
    return targets.data() + offsets[u];
  }
  const VertexId* End(VertexId u) const {
    return targets.data() + offsets[u + 1];
  }
};

// One pass of random degree reads decides every CSR slot's direction into
// a byte per slot; the copy pass then reads the slots in order, without
// a branch.
ForwardAdjacency BuildForward(const Graph& g) {
  const uint32_t n = g.NumVertices();
  const std::vector<VertexId>& adj = g.Adjacency();
  const std::vector<uint32_t>& slots = g.Offsets();
  std::vector<uint8_t> forward(adj.size());
  ForwardAdjacency fwd;
  fwd.offsets.assign(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    uint32_t out = 0;
    for (uint32_t s = slots[u]; s < slots[u + 1]; ++s) {
      forward[s] = Before(g, u, adj[s]);
      out += forward[s];
    }
    fwd.offsets[u + 1] = fwd.offsets[u] + out;
  }
  fwd.targets.resize(fwd.offsets[n] + 1);
  uint32_t next = 0;
  for (size_t s = 0; s < adj.size(); ++s) {
    fwd.targets[next] = adj[s];
    next += forward[s];
  }
  return fwd;
}

// Pivot vertices in ParallelForBlocks blocks of `grain`, and the lanes
// that run them: what per-lane and per-block arrays are sized by.
struct PivotBlocks {
  uint64_t grain;
  uint64_t count;
  uint32_t lanes;
};

PivotBlocks Blocks(uint32_t n, const ParallelOptions& options) {
  const uint64_t grain = internal::ResolveGrain(options.grain, 1024);
  const uint64_t count = (n + grain - 1) / grain;
  return {grain, count, EffectiveLanes({options.num_threads, 1}, count)};
}

// Calls visit(u, mark, block, lane) for every pivot u, with `mark` the
// running lane's n bytes, set at exactly fwd(u). Every lane's marks are
// allocated here on the calling thread, before the region.
template <typename Visit>
void ForEachMarkedPivot(const ForwardAdjacency& fwd, const PivotBlocks& blocks,
                        const ParallelOptions& options, Visit&& visit) {
  const uint32_t n = static_cast<uint32_t>(fwd.offsets.size() - 1);
  std::vector<uint8_t> marks(static_cast<size_t>(blocks.lanes) * n, 0);
  ParallelForBlocks(blocks.count, options, [&](uint64_t block, uint32_t lane) {
    uint8_t* mark = marks.data() + static_cast<size_t>(lane) * n;
    const uint64_t lo = block * blocks.grain;
    const uint64_t hi = lo + blocks.grain < n ? lo + blocks.grain : n;
    for (uint64_t i = lo; i < hi; ++i) {
      const VertexId u = static_cast<VertexId>(i);
      if (fwd.End(u) - fwd.Begin(u) < 2) continue;  // closes no triangle
      for (const VertexId* v = fwd.Begin(u); v != fwd.End(u); ++v) mark[*v] = 1;
      visit(u, mark, block, lane);
      for (const VertexId* v = fwd.Begin(u); v != fwd.End(u); ++v) mark[*v] = 0;
    }
  });
}

}  // namespace

uint64_t CountTriangles(const Graph& g, const ParallelOptions& options) {
  const ForwardAdjacency fwd = BuildForward(g);
  const PivotBlocks blocks = Blocks(g.NumVertices(), options);
  // Integer partials per block: exact, so neither the blocking nor which
  // lane ran a block can show through.
  std::vector<uint64_t> partials(blocks.count, 0);
  ForEachMarkedPivot(
      fwd, blocks, options,
      [&](VertexId u, const uint8_t* mark, uint64_t block, uint32_t) {
        uint64_t count = 0;
        for (const VertexId* v = fwd.Begin(u); v != fwd.End(u); ++v) {
          for (const VertexId* w = fwd.Begin(*v); w != fwd.End(*v); ++w) {
            count += mark[*w];
          }
        }
        partials[block] += count;
      });
  return std::accumulate(partials.begin(), partials.end(), uint64_t{0});
}

std::vector<uint32_t> VertexTriangleCounts(const Graph& g,
                                           const ParallelOptions& options) {
  const uint32_t n = g.NumVertices();
  const ForwardAdjacency fwd = BuildForward(g);
  const PivotBlocks blocks = Blocks(n, options);

  // One n-sized count arena per lane; a pivot's tallies go to its lane's
  // arena, so lanes never share mutable state. Which arena a triangle
  // lands in varies run to run (blocks are claimed dynamically), but the
  // per-vertex SUM over arenas is an integer and therefore
  // partition-invariant.
  std::vector<uint32_t> arenas(static_cast<size_t>(blocks.lanes) * n, 0);
  ForEachMarkedPivot(
      fwd, blocks, options,
      [&](VertexId u, const uint8_t* mark, uint64_t, uint32_t lane) {
        uint32_t* counts = arenas.data() + static_cast<size_t>(lane) * n;
        for (const VertexId* v = fwd.Begin(u); v != fwd.End(u); ++v) {
          uint32_t hits = 0;
          for (const VertexId* w = fwd.Begin(*v); w != fwd.End(*v); ++w) {
            if (mark[*w] != 0) {
              ++counts[*w];
              ++hits;
            }
          }
          counts[*v] += hits;
          counts[u] += hits;
        }
      });
  if (blocks.lanes <= 1) return arenas;

  std::vector<uint32_t> counts(n, 0);
  ParallelFor(0, n, options, [&](uint64_t v) {
    uint32_t total = 0;
    for (uint32_t lane = 0; lane < blocks.lanes; ++lane) {
      total += arenas[static_cast<size_t>(lane) * n + v];
    }
    counts[v] = total;
  });
  return counts;
}

}  // namespace graphscape
