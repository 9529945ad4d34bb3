// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Canonical undirected edge ids over the CSR structure, shared by every
// edge-indexed subsystem (K-Truss support peeling, nucleus triangle
// runs, edge scalar trees). Edge e's id is its position in EdgeList order: ascending
// smaller endpoint, then larger — exactly the order TrussNumbers and
// EdgeScalarField values are laid out in.
//
// This id space is the hinge between the paper's two tree algorithms
// (PAPER.md §II-C): Algorithm 3 builds an edge scalar tree whose NODES
// are these edge ids while its union-find runs over the ORIGINAL
// graph's vertices, and the resulting ScalarTree flows through the same
// Algorithm 2 contraction and §II-E simplification as Algorithm 1's
// vertex trees (scalar/tree_core.h). For that to be sound the mapping
// must satisfy two invariants: (1) twin consistency — both CSR slots of
// an undirected edge {u, v} carry the SAME id, so "the edge at this
// slot" is direction-free; (2) order agreement — ids are dense in
// EdgeList order, so a metric vector computed by edge peeling
// (TrussNumbers) indexes an EdgeScalarField with no permutation.
//
// Construction resolves the undirected-twin mapping in one linear pass.
// Visiting u ascending, each u < v slot mints the next id and writes it
// to the twin slot too, through a per-vertex fill cursor into v's run:
// v's smaller neighbors sit at the front of its sorted run and arrive
// in that same ascending order, so the cursor lands on exactly the twin
// with no search. After that every adjacency slot answers "which edge am
// I?" in O(1), which is what lets K-Truss and the nucleus build their
// {neighbour, edge} runs and the naive dual-graph construction stay free
// of hashing and binary searches.

#ifndef GRAPHSCAPE_GRAPH_EDGE_INDEX_H_
#define GRAPHSCAPE_GRAPH_EDGE_INDEX_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphscape {

class EdgeIndex {
 public:
  explicit EdgeIndex(const Graph& g) {
    const uint32_t n = g.NumVertices();
    const std::vector<uint32_t>& offsets = g.Offsets();
    const std::vector<VertexId>& adj = g.Adjacency();
    slot_eid_.resize(adj.size());
    // fill[v]: v's next unwritten slot among its smaller neighbors.
    std::vector<uint32_t> fill(offsets.begin(), offsets.begin() + n);
    uint32_t next = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (uint32_t s = offsets[u]; s < offsets[u + 1]; ++s) {
        const VertexId v = adj[s];
        if (u < v) {
          slot_eid_[s] = next;
          slot_eid_[fill[v]++] = next;
          ++next;
        }
      }
    }
  }

  /// Edge id of the s-th CSR adjacency slot.
  uint32_t EdgeAtSlot(uint32_t slot) const { return slot_eid_[slot]; }

 private:
  std::vector<uint32_t> slot_eid_;  // 2m: CSR slot -> edge id
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_EDGE_INDEX_H_
