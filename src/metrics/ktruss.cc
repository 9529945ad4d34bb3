// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/ktruss.h"

#include <algorithm>
#include <utility>

#include "common/peel_by_level.h"
#include "graph/edge_index.h"
#include "graph/intersect.h"
#include "metrics/peel_runs.h"

namespace graphscape {

namespace internal {

// The EdgeIndex lives only for this call, so it is freed before the
// support pass allocates.
std::vector<Pair> BuildRuns(const Graph& g) {
  const EdgeIndex index(g);
  const std::vector<VertexId>& adj = g.Adjacency();
  std::vector<Pair> runs(adj.size());
  for (uint32_t s = 0; s < runs.size(); ++s) {
    runs[s] = {adj[s], index.EdgeAtSlot(s)};
  }
  return runs;
}

}  // namespace internal

namespace {

using internal::KeepLive;
using internal::kPeeled;
using internal::Pair;

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
        if (q != b_hi && q->w == p.w && q->id != kPeeled) {
          demote(p.id);
          demote(q->id);
        }
      }));
      std::lower_bound(b_lo, b_hi, a, by_w)->id = kPeeled;
    } else {
      end[a] = slot(KeepLive(a_lo, a_hi, e, [&](const Pair& p, bool live) {
        mark[p.w] = live ? p.id + 1 : 0;
      }));
      end[b] = slot(KeepLive(b_lo, b_hi, e, [&](const Pair& q, bool live) {
        const uint32_t m = mark[q.w];
        if (live && m != 0) {
          demote(m - 1);
          demote(q.id);
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
  std::vector<Pair> runs = internal::BuildRuns(g);
  std::vector<uint8_t> mark(g.NumVertices(), 0);
  std::vector<uint32_t> support = internal::CountSupport(g, runs, mark);
  return PeelBySupport(g, std::move(runs), std::move(support));
}

std::vector<uint32_t> TrussNumbersParallel(const Graph& g,
                                           const ParallelOptions& /*options*/) {
  return TrussNumbers(g);
}

}  // namespace graphscape
