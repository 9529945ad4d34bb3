// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/ktruss.h"

#include <algorithm>
#include <utility>

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

// One adjacency slot of u: the neighbour w and the id of edge {u, w}.
struct Pair {
  VertexId w;
  uint32_t e;
};

// The edge id a peeled pair carries in the peel's runs.
constexpr uint32_t kPeeled = ~0u;

// Every vertex's run of pairs, in CSR slot order. The EdgeIndex lives
// only for this call, so it is freed before the peel allocates.
std::vector<Pair> BuildRuns(const Graph& g) {
  const EdgeIndex index(g);
  const std::vector<VertexId>& adj = g.Adjacency();
  std::vector<Pair> runs(adj.size());
  for (uint32_t s = 0; s < runs.size(); ++s) {
    runs[s] = {adj[s], index.EdgeAtSlot(s)};
  }
  return runs;
}

// Support = triangles per edge. Vertex u owns the edges to neighbours
// ranked below it by (degree, id), so each edge is counted once, from
// its higher-ranked end, by scanning the lower-ranked end's run: the
// shorter one. u marks N(u) once, then every owned edge {u, v} sums the
// marks over N(v). Owners are disjoint, so blocks of owners write
// disjoint support entries.
std::vector<uint32_t> CountSupport(const Graph& g,
                                   const std::vector<Pair>& runs,
                                   const ParallelOptions& options) {
  const uint32_t n = g.NumVertices();
  const std::vector<uint32_t>& offsets = g.Offsets();
  std::vector<uint32_t> support(g.NumEdges(), 0);
  const uint64_t grain = internal::ResolveGrain(options.grain, 1024);
  const uint64_t num_blocks = (n + grain - 1) / grain;
  // Every lane's marks, allocated here rather than inside the region.
  const uint32_t lanes = EffectiveLanes({options.num_threads, 1}, num_blocks);
  std::vector<uint8_t> marks(static_cast<size_t>(lanes) * n, 0);
  const auto ranks_below = [&g](VertexId a, VertexId b) {
    const uint32_t da = g.Degree(a), db = g.Degree(b);
    return da < db || (da == db && a < b);
  };
  ParallelForBlocks(num_blocks, options, [&](uint64_t block, uint32_t lane) {
    uint8_t* mark = marks.data() + static_cast<size_t>(lane) * n;
    const uint32_t lo = static_cast<uint32_t>(block * grain);
    const uint32_t hi =
        static_cast<uint32_t>(std::min<uint64_t>(lo + grain, n));
    for (VertexId u = lo; u < hi; ++u) {
      const Pair* begin = runs.data() + offsets[u];
      const Pair* end = runs.data() + offsets[u + 1];
      for (const Pair* p = begin; p != end; ++p) mark[p->w] = 1;
      for (const Pair* p = begin; p != end; ++p) {
        if (!ranks_below(p->w, u)) continue;
        uint32_t triangles = 0;
        const Pair* q_end = runs.data() + offsets[p->w + 1];
        for (const Pair* q = runs.data() + offsets[p->w]; q != q_end; ++q) {
          triangles += mark[q->w];
        }
        support[p->e] = triangles;
      }
      for (const Pair* p = begin; p != end; ++p) mark[p->w] = 0;
    }
  });
  return support;
}

// Compacts the run [lo, hi) in place to its live pairs other than edge
// e's, in order, and returns the new end. visit(pair, live) sees every
// pair. The loop does not branch on liveness: a walk meets edges
// peeled since its run was last compacted in no predictable order.
template <typename Visit>
Pair* KeepLive(Pair* lo, Pair* hi, uint32_t e, Visit&& visit) {
  Pair* out = lo;
  for (const Pair* p = lo; p != hi; ++p) {
    const Pair pair = *p;
    const bool live = pair.e != e && pair.e != kPeeled;
    *out = pair;
    out += live;
    visit(pair, live);
  }
  return out;
}

// The peel proper, after the support-counting pass. Order-serial: each
// peel demotes surviving edges, which decides who peels next.
//
// Vertex x's run [offsets[x], end[x]) stays sorted by w. It holds x's
// edges not yet peeled (queued edges too: they close triangles until
// their own turn) and possibly tombstones. Peeling {a, b}, a's run the
// shorter, walks a's run and then b's, and each walk compacts its run to
// the live pairs, so no walk passes e or a peeled pair again. When b's
// run is Skewed-longer (a hub against a leaf), it is searched for each
// of a's neighbours instead of walked, and e's pair in it becomes a
// tombstone: walking it would rescan the hub's run for every leaf edge.
std::vector<uint32_t> PeelBySupport(const Graph& g, std::vector<Pair> runs,
                                    std::vector<uint32_t> support) {
  const uint32_t n = g.NumVertices();
  const std::vector<uint32_t>& offsets = g.Offsets();
  const std::vector<VertexId>& sources = g.EdgeSources();
  const std::vector<VertexId>& targets = g.EdgeTargets();
  std::vector<uint32_t> end(n);
  for (VertexId x = 0; x < n; ++x) end[x] = offsets[x + 1];
  // mark[w] = 1 + the id of the live edge {a, w}, or 0.
  std::vector<uint32_t> mark(n, 0);
  const auto by_w = [](const Pair& p, VertexId w) { return p.w < w; };
  const auto slot = [&runs](const Pair* p) {
    return static_cast<uint32_t>(p - runs.data());
  };
  PeelByLevel(&support, [&](uint32_t e, auto& demote) {
    VertexId a = sources[e], b = targets[e];
    if (end[a] - offsets[a] > end[b] - offsets[b]) std::swap(a, b);
    Pair* const a_lo = runs.data() + offsets[a];
    Pair* const a_hi = runs.data() + end[a];
    Pair* const b_lo = runs.data() + offsets[b];
    Pair* const b_hi = runs.data() + end[b];
    // A triangle {a, b, w} is live when both side edges are.
    if (intersect::detail::Skewed(a_hi - a_lo, b_hi - b_lo)) {
      Pair* q = b_lo;
      end[a] = slot(KeepLive(a_lo, a_hi, e, [&](const Pair& p, bool live) {
        if (!live) return;
        q = std::lower_bound(q, b_hi, p.w, by_w);
        if (q != b_hi && q->w == p.w && q->e != kPeeled) {
          demote(p.e);
          demote(q->e);
        }
      }));
      std::lower_bound(b_lo, b_hi, a, by_w)->e = kPeeled;
    } else {
      end[a] = slot(KeepLive(a_lo, a_hi, e, [&](const Pair& p, bool live) {
        mark[p.w] = live ? p.e + 1 : 0;
      }));
      end[b] = slot(KeepLive(b_lo, b_hi, e, [&](const Pair& q, bool live) {
        const uint32_t m = mark[q.w];
        if (live && m != 0) {
          demote(m - 1);
          demote(q.e);
        }
      }));
      for (uint32_t s = offsets[a]; s < end[a]; ++s) mark[runs[s].w] = 0;
    }
  });
  for (uint32_t& s : support) s += 2;  // truss = peel level + 2
  return support;
}

}  // namespace

std::vector<uint32_t> TrussNumbers(const Graph& g) {
  return TrussNumbersParallel(g, {1, 0});
}

std::vector<uint32_t> TrussNumbersParallel(const Graph& g,
                                           const ParallelOptions& options) {
  std::vector<Pair> runs = BuildRuns(g);
  std::vector<uint32_t> support = CountSupport(g, runs, options);
  return PeelBySupport(g, std::move(runs), std::move(support));
}

}  // namespace graphscape
