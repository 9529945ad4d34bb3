// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/triangles.h"

#include <algorithm>

#include "graph/intersect.h"

namespace graphscape {
namespace {

// Degree order with id tie-break; orienting edges low -> high makes the
// out-degree of every vertex O(sqrt(m)) on any graph.
inline bool Before(const std::vector<uint32_t>& deg, VertexId a, VertexId b) {
  return deg[a] < deg[b] || (deg[a] == deg[b] && a < b);
}

// The degree-oriented DAG in CSR form: fwd run of u = neighbors v with u
// Before v, still sorted ascending by id (filtering a sorted CSR run
// keeps its order). Every triangle {u, v, w} has exactly one source —
// its degree-least vertex — and appears exactly once as w ∈ fwd(u) ∩
// fwd(v) for v ∈ fwd(u). The runs being sorted and duplicate-free is
// what lets the intersections go through the SIMD/galloping kernels
// (graph/intersect_simd.h).
struct ForwardAdjacency {
  std::vector<uint32_t> offsets;  // n + 1
  std::vector<VertexId> targets;  // m
  uint32_t max_out_degree = 0;    // scratch sizing for Into() callers

  const VertexId* Run(VertexId u) const { return targets.data() + offsets[u]; }
  uint32_t RunLength(VertexId u) const {
    return offsets[u + 1] - offsets[u];
  }
};

ForwardAdjacency BuildForward(const Graph& g,
                              const std::vector<uint32_t>& deg) {
  const uint32_t n = g.NumVertices();
  ForwardAdjacency fwd;
  fwd.offsets.assign(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    uint32_t out = 0;
    for (const VertexId v : g.Neighbors(u)) {
      if (Before(deg, u, v)) ++out;
    }
    fwd.offsets[u + 1] = fwd.offsets[u] + out;
    fwd.max_out_degree = std::max(fwd.max_out_degree, out);
  }
  fwd.targets.resize(fwd.offsets[n]);
  for (VertexId u = 0; u < n; ++u) {
    uint32_t next = fwd.offsets[u];
    for (const VertexId v : g.Neighbors(u)) {
      if (Before(deg, u, v)) fwd.targets[next++] = v;
    }
  }
  return fwd;
}

// Count-only per-pivot tally: triangles sourced at u. The lanes
// partition work by pivot; integer partial sums are
// partition-invariant, so thread count can never show through.
inline uint64_t TrianglesFromPivot(const ForwardAdjacency& fwd, VertexId u) {
  uint64_t count = 0;
  const VertexId* run = fwd.Run(u);
  const uint32_t len = fwd.RunLength(u);
  for (uint32_t k = 0; k < len; ++k) {
    const VertexId v = run[k];
    count += intersect::Count(run, len, fwd.Run(v), fwd.RunLength(v));
  }
  return count;
}

// Per-vertex tally from pivot u: each common neighbor w of (u, v ∈
// fwd(u)) closes one triangle touching u, v, and w. Needs the elements,
// so it goes through intersect::Into into the caller's reused scratch
// run (sized fwd.max_out_degree — never reallocated in the loop).
inline void VertexTrianglesFromPivot(const ForwardAdjacency& fwd, VertexId u,
                                     VertexId* scratch, uint32_t* counts) {
  const VertexId* run = fwd.Run(u);
  const uint32_t len = fwd.RunLength(u);
  for (uint32_t k = 0; k < len; ++k) {
    const VertexId v = run[k];
    const uint32_t hits =
        intersect::Into(run, len, fwd.Run(v), fwd.RunLength(v), scratch);
    counts[u] += hits;
    counts[v] += hits;
    for (uint32_t h = 0; h < hits; ++h) ++counts[scratch[h]];
  }
}

std::vector<uint32_t> Degrees(const Graph& g, const ParallelOptions& options) {
  std::vector<uint32_t> deg(g.NumVertices());
  ParallelFor(0, deg.size(), options,
              [&](uint64_t v) { deg[v] = g.Degree(static_cast<VertexId>(v)); });
  return deg;
}

}  // namespace

uint64_t CountTriangles(const Graph& g, const ParallelOptions& options) {
  const uint32_t n = g.NumVertices();
  const std::vector<uint32_t> deg = Degrees(g, options);
  const ForwardAdjacency fwd = BuildForward(g, deg);
  // Fixed-order sum of per-block integer partials: exact, so the
  // blocking (and therefore the thread count) cannot show through.
  return ParallelReduce<uint64_t>(
      0, n, options, 0,
      [&](uint64_t u, uint64_t* acc) {
        *acc += TrianglesFromPivot(fwd, static_cast<VertexId>(u));
      },
      [](uint64_t total, uint64_t partial) { return total + partial; });
}

std::vector<uint32_t> VertexTriangleCounts(const Graph& g,
                                           const ParallelOptions& options) {
  const uint32_t n = g.NumVertices();
  const uint32_t threads =
      options.num_threads == 0 ? DefaultThreads() : options.num_threads;
  const uint64_t grain = options.grain == 0 ? 512 : options.grain;
  const uint64_t num_blocks = (n + grain - 1) / grain;
  // Must match what ParallelForBlocks below resolves to, so every lane
  // id the body sees has an arena.
  const uint32_t lanes = std::max(1u, EffectiveLanes({threads, 1}, num_blocks));
  const std::vector<uint32_t> deg = Degrees(g, options);
  const ForwardAdjacency fwd = BuildForward(g, deg);

  // Per-lane count arenas plus one Into() scratch run per lane, all
  // allocated up front on the calling thread; a pivot's tallies go to
  // its lane's arena, so lanes never share mutable state. Which arena a
  // triangle lands in varies run to run (blocks are claimed
  // dynamically), but the per-vertex SUM over arenas is an integer and
  // therefore partition-invariant.
  std::vector<std::vector<uint32_t>> arenas(lanes);
  for (std::vector<uint32_t>& arena : arenas) arena.assign(n, 0);
  std::vector<std::vector<VertexId>> scratch(lanes);
  for (std::vector<VertexId>& s : scratch) s.assign(fwd.max_out_degree, 0);
  ParallelForBlocks(num_blocks, {threads, 0},
                    [&](uint64_t block, uint32_t lane) {
                      const uint64_t lo = block * grain;
                      const uint64_t hi = lo + grain < n ? lo + grain : n;
                      for (uint64_t u = lo; u < hi; ++u) {
                        VertexTrianglesFromPivot(
                            fwd, static_cast<VertexId>(u),
                            scratch[lane].data(), arenas[lane].data());
                      }
                    });
  if (lanes == 1) return std::move(arenas[0]);

  // Fixed lane-order reduction (integer, so order is moot — kept fixed
  // anyway to match the documented contract).
  std::vector<uint32_t> counts(n, 0);
  ParallelFor(0, n, options, [&](uint64_t v) {
    uint32_t total = 0;
    for (uint32_t lane = 0; lane < lanes; ++lane) total += arenas[lane][v];
    counts[v] = total;
  });
  return counts;
}

}  // namespace graphscape
