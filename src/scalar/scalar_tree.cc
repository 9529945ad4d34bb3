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
  // order.
  std::vector<uint32_t> order;
  tree_core::SortSweepOrder(values, &order);

  // Union-find state + the tree arena, all sized up front. `head[r]` is the
  // vertex swept last so far in the component rooted at r — the node the
  // next merge will attach to. `swept` holds one bit per vertex: set once
  // the vertex's own neighbour loop is done.
  std::vector<uint32_t> uf(n);
  std::iota(uf.begin(), uf.end(), 0u);
  std::vector<uint32_t> comp_size(n, 1);
  std::vector<VertexId> head(n);
  std::iota(head.begin(), head.end(), 0u);
  std::vector<VertexId> parents(n, kInvalidVertex);
  std::vector<uint64_t> swept((static_cast<size_t>(n) + 63) / 64, 0);

  // Sweep. For w, every CSR neighbor u already swept (a vertex earlier in
  // the order) is exactly an edge whose activation key is w's position;
  // visiting w in sweep order therefore processes all m edges in
  // nondecreasing key order with no materialized edge array. The
  // "already swept" probe hits a random vertex per adjacency entry; at
  // one bit per vertex it stays in cache on million-vertex graphs. w's
  // bit is set after its own run, so a self-loop never merges. Each
  // merge gives one parentless head a parent, so the roots are the
  // vertices minus the merges. This loop performs zero heap allocations.
  uint32_t* const uf_data = uf.data();
  uint32_t* const size_data = comp_size.data();
  VertexId* const head_data = head.data();
  VertexId* const parent_data = parents.data();
  uint64_t* const swept_data = swept.data();
  uint32_t merges = 0;
  for (const VertexId w : order) {
    uint32_t rw = tree_core::Find(uf_data, w);
    for (const VertexId u : g.Neighbors(w)) {
      if (((swept_data[u >> 6] >> (u & 63)) & 1) == 0) {
        continue;  // activates later, when u is swept
      }
      const uint32_t ru = tree_core::Find(uf_data, u);
      if (ru == rw) continue;
      // The higher component's head merges into the sweep vertex w.
      rw = tree_core::AttachAndUnion(ru, rw, w, uf_data, size_data,
                                     head_data, parent_data);
      ++merges;
    }
    swept_data[w >> 6] |= uint64_t{1} << (w & 63);
  }

  return ScalarTree(std::move(parents), std::vector<double>(values),
                    std::move(order), n - merges);
}

ScalarTree BuildVertexScalarTreeParallel(const Graph& g,
                                         const VertexScalarField& field,
                                         const ParallelOptions& /*options*/) {
  return BuildVertexScalarTree(g, field);
}

}  // namespace graphscape
