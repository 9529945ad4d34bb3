// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/scalar_tree.h"

#include <cassert>
#include <numeric>

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
                                         const ParallelOptions& /*options*/) {
  return BuildVertexScalarTree(g, field);
}

}  // namespace graphscape
