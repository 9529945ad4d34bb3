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

  // Union-find state + the tree arena, all sized up front. The sweep
  // keeps its state at degree-order view positions (Graph::ByDegree), so
  // the probes of hub neighbours land in a few cache lines, while the
  // order, `head` values and parents stay in vertex ids. `head[r]` is the
  // vertex swept last so far in the component rooted at position r — the
  // node the next merge will attach to; a vertex's own entry is set when
  // it is swept, which is before anything reads it. `swept` holds one bit
  // per position: set once the vertex's own neighbour loop is done.
  const Graph::DegreeOrder& view = g.ByDegree();
  std::vector<uint32_t> uf(n);
  std::iota(uf.begin(), uf.end(), 0u);
  std::vector<uint32_t> comp_size(n, 1);
  std::vector<VertexId> head(n);
  std::vector<VertexId> parents(n, kInvalidVertex);
  std::vector<uint64_t> swept((static_cast<size_t>(n) + 63) / 64, 0);

  // Sweep. For w, every neighbor u already swept (a vertex earlier in the
  // order) is exactly an edge whose activation key is w's position;
  // visiting w in sweep order therefore processes all m edges in
  // nondecreasing key order with no materialized edge array. The
  // "already swept" probe hits a random vertex per adjacency entry; at
  // one bit per vertex it stays in cache on million-vertex graphs. Each
  // head w meets gets parent w whatever order w's run lists them in, so
  // the view's run order leaves the parents as a caller-id sweep sets
  // them. w's bit is set after its own run, so a self-loop never merges.
  // Each merge gives one parentless head a parent, so the roots are the
  // vertices minus the merges. This loop performs zero heap allocations.
  const uint32_t* const rank = view.rank.data();
  const uint32_t* const offsets = view.offsets.data();
  const uint32_t* const adjacency = view.adjacency.data();
  uint32_t* const uf_data = uf.data();
  uint32_t* const size_data = comp_size.data();
  VertexId* const head_data = head.data();
  VertexId* const parent_data = parents.data();
  uint64_t* const swept_data = swept.data();
  uint32_t merges = 0;
  for (const VertexId w : order) {
    // No merge has touched w before its own sweep: p is its own root.
    const uint32_t p = rank[w];
    uint32_t rw = p;
    head_data[p] = w;
    for (uint32_t i = offsets[p]; i < offsets[p + 1]; ++i) {
      const uint32_t q = adjacency[i];
      if (((swept_data[q >> 6] >> (q & 63)) & 1) == 0) {
        continue;  // activates later, when q is swept
      }
      const uint32_t rq = tree_core::Find(uf_data, q);
      if (rq == rw) continue;
      // The higher component's head merges into the sweep vertex w.
      rw = tree_core::AttachAndUnion(rq, rw, w, uf_data, size_data,
                                     head_data, parent_data);
      ++merges;
    }
    swept_data[p >> 6] |= uint64_t{1} << (p & 63);
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
