// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/scalar_tree.h"

#include <cassert>
#include <numeric>

#include "common/string_util.h"
#include "scalar/tree_core.h"

namespace graphscape {

ScalarTree BuildVertexScalarTree(const Graph& g,
                                 const VertexScalarField& field) {
  const uint32_t n = g.NumVertices();
  assert(field.Size() == n);
  const std::vector<double>& values = field.Values();

  // The single sort: vertices by (value desc, id asc) — superlevel sweep
  // order. rank[v] is v's position in that order; comparing ranks is the
  // total order used everywhere below.
  std::vector<uint32_t> order, rank;
  tree_core::SortSweepOrder(values, &order, &rank);

  // Union-find state + the tree arena, all sized up front. `head[r]` is the
  // highest-rank vertex swept so far in the component rooted at r — the
  // node the next merge will attach to.
  std::vector<uint32_t> uf(n);
  std::iota(uf.begin(), uf.end(), 0u);
  std::vector<uint32_t> comp_size(n, 1);
  std::vector<VertexId> head(n);
  std::iota(head.begin(), head.end(), 0u);
  std::vector<VertexId> parents(n, kInvalidVertex);

  // Sweep. For w at rank k, every CSR neighbor u with rank[u] < k (a
  // higher-valued vertex, already swept) is exactly an edge whose
  // activation key max(rank(u), rank(w)) == k; visiting w in rank order
  // therefore processes all m edges in nondecreasing key order with no
  // materialized edge array. This loop performs zero heap allocations.
  uint32_t* const uf_data = uf.data();
  uint32_t* const size_data = comp_size.data();
  VertexId* const head_data = head.data();
  VertexId* const parent_data = parents.data();
  const uint32_t* const rank_data = rank.data();
  for (uint32_t k = 0; k < n; ++k) {
    const VertexId w = order[k];
    uint32_t rw = tree_core::Find(uf_data, w);
    for (const VertexId u : g.Neighbors(w)) {
      if (rank_data[u] >= k) continue;  // activates later, when u is swept
      const uint32_t ru = tree_core::Find(uf_data, u);
      if (ru == rw) continue;
      // The higher component's head merges into the sweep vertex w.
      rw = tree_core::AttachAndUnion(ru, rw, w, uf_data, size_data,
                                     head_data, parent_data);
    }
  }

  uint32_t num_roots = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (parents[v] == kInvalidVertex) ++num_roots;
  }

  return ScalarTree(std::move(parents), std::vector<double>(values),
                    std::move(order), num_roots);
}

ScalarTree BuildVertexScalarTreeParallel(const Graph& g,
                                         const VertexScalarField& field,
                                         const ParallelOptions& options) {
  const uint32_t n = g.NumVertices();
  assert(field.Size() == n);
  const uint32_t lanes =
      options.num_threads == 0 ? DefaultThreads() : options.num_threads;
  // Exact sequential fallback: same code path, not a 1-lane simulation.
  if (lanes <= 1) return BuildVertexScalarTree(g, field);
  const std::vector<double>& values = field.Values();

  std::vector<uint32_t> order, rank;
  tree_core::SortSweepOrder(values, &order, &rank);

  const uint64_t min_chunk = options.grain == 0 ? 4096 : options.grain;
  const std::vector<uint64_t> bounds =
      tree_core::MakeSweepChunks(n, lanes, min_chunk);
  const uint64_t num_chunks = bounds.size() - 1;

  // Phase A: chunk-local sweeps. Each chunk owns a contiguous rank range
  // and a private union-find over it; scanning its vertices in rank
  // order, an edge to an EARLIER chunk is always kept (its global merge
  // state is unknowable locally), while an intra-chunk edge is kept only
  // if it merges locally. A locally redundant edge is redundant in the
  // sequential sweep too — the local structure is a subset of the global
  // prefix — so dropping it cannot change the replay (tree_core.h lists
  // the invariants). Parents are NOT written here; phase A only filters.
  // All per-chunk scratch is allocated below, on the calling thread,
  // sized so the region body never allocates: kept buffers are reserved
  // to the chunk's degree sum, an upper bound on its pushes.
  const std::vector<uint32_t>& offsets = g.Offsets();
  std::vector<std::vector<uint64_t>> kept(num_chunks);
  std::vector<std::vector<uint32_t>> local_uf(num_chunks);
  std::vector<std::vector<uint32_t>> local_size(num_chunks);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    const uint64_t lo = bounds[c], hi = bounds[c + 1];
    uint64_t degree_sum = 0;
    for (uint64_t k = lo; k < hi; ++k) {
      const VertexId w = order[k];
      degree_sum += offsets[w + 1] - offsets[w];
    }
    kept[c].reserve(degree_sum);
    local_uf[c].resize(hi - lo);
    std::iota(local_uf[c].begin(), local_uf[c].end(), 0u);
    local_size[c].assign(hi - lo, 1);
  }

  const uint32_t* const rank_data = rank.data();
  const uint32_t* const order_data = order.data();
  ParallelForBlocks(num_chunks, options, [&](uint64_t c, uint32_t) {
    const uint64_t lo = bounds[c], hi = bounds[c + 1];
    uint32_t* const luf = local_uf[c].data();
    uint32_t* const lsz = local_size[c].data();
    std::vector<uint64_t>& out = kept[c];
    for (uint64_t k = lo; k < hi; ++k) {
      const VertexId w = order_data[k];
      const uint64_t packed_w = static_cast<uint64_t>(w) << 32;
      for (const VertexId u : g.Neighbors(w)) {
        const uint32_t ru = rank_data[u];
        if (ru >= k) continue;  // activates later, when u is swept
        if (ru < lo) {          // cross-chunk: always kept
          out.push_back(packed_w | u);
          continue;
        }
        const uint32_t la =
            tree_core::Find(luf, static_cast<uint32_t>(ru - lo));
        const uint32_t lb =
            tree_core::Find(luf, static_cast<uint32_t>(k - lo));
        if (la == lb) continue;  // locally redundant => globally redundant
        uint32_t big = lb, small = la;
        if (lsz[big] < lsz[small]) std::swap(big, small);
        luf[small] = big;
        lsz[big] += lsz[small];
        out.push_back(packed_w | u);
      }
    }
  });

  // Phase B: boundary merge — replay the kept edges in sweep order
  // (chunks ascending preserve rank order; within a chunk the pushes are
  // already (rank, CSR) ordered) running the full attach-and-union. This
  // is the sequential sweep with its no-op edges removed, so parents,
  // heads, and the merge sequence are bit-identical to the sequential
  // build's. Each merge creates exactly one parent, so the root count
  // falls out of the attach count.
  std::vector<uint32_t> uf(n);
  std::iota(uf.begin(), uf.end(), 0u);
  std::vector<uint32_t> comp_size(n, 1);
  std::vector<VertexId> head(n);
  std::iota(head.begin(), head.end(), 0u);
  std::vector<VertexId> parents(n, kInvalidVertex);
  uint32_t* const uf_data = uf.data();
  uint32_t* const size_data = comp_size.data();
  VertexId* const head_data = head.data();
  VertexId* const parent_data = parents.data();
  uint32_t attaches = 0;
  VertexId cur_w = kInvalidVertex;
  uint32_t rw = 0;
  for (uint64_t c = 0; c < num_chunks; ++c) {
    for (const uint64_t packed : kept[c]) {
      const VertexId w = static_cast<VertexId>(packed >> 32);
      const VertexId u = static_cast<VertexId>(packed);
      if (w != cur_w) {
        cur_w = w;
        // w is a singleton when first swept (all its edges activate at
        // its own rank or later), exactly as in the sequential sweep.
        rw = tree_core::Find(uf_data, w);
      }
      const uint32_t ru = tree_core::Find(uf_data, u);
      if (ru == rw) continue;
      rw = tree_core::AttachAndUnion(ru, rw, w, uf_data, size_data,
                                     head_data, parent_data);
      ++attaches;
    }
  }

  return ScalarTree(std::move(parents), std::vector<double>(values),
                    std::move(order), n - attaches);
}

uint64_t VertexScalarTreeBuildBytes(uint32_t num_vertices) {
  // order + rank + uf + comp_size + head + parents (u32 each) plus the
  // values copy the ScalarTree keeps (f64). The sort's u64 key array is
  // freed before the sweep arrays exist, and order + rank + keys (16 B
  // per vertex) stays below the sweep's own peak, so this bounds it.
  return static_cast<uint64_t>(num_vertices) * (6 * 4 + 8);
}

StatusOr<ScalarTree> BuildVertexScalarTreeGuarded(
    const Graph& g, const VertexScalarField& field, ResourceBudget* budget) {
  if (field.Size() != g.NumVertices()) {
    return Status::InvalidArgument(StrPrintf(
        "scalar_tree: field has %u values for %u vertices", field.Size(),
        g.NumVertices()));
  }
  Status status = CheckBudgetDeadline(budget, "BuildVertexScalarTree");
  if (!status.ok()) return status;
  status = ChargeBudget(budget, VertexScalarTreeBuildBytes(g.NumVertices()),
                        "BuildVertexScalarTree");
  if (!status.ok()) return status;
  return BuildVertexScalarTree(g, field);
}

}  // namespace graphscape
