// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/nucleus.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/peel_by_level.h"
#include "graph/edge_index.h"
#include "graph/intersect.h"

namespace graphscape {
namespace {

inline uint64_t PackTriple(VertexId a, VertexId b, VertexId c) {
  // Callers pass ascending triples; 3 x 21 bits.
  return (static_cast<uint64_t>(a) << 42) | (static_cast<uint64_t>(b) << 21) |
         static_cast<uint64_t>(c);
}

}  // namespace

NucleusDecomposition Nucleus34(const Graph& g) {
  // Hard precondition, enforced in every build type: beyond 2^21 vertices
  // the packed triple keys would overlap and silently corrupt the
  // decomposition.
  if (g.NumVertices() >= (1u << 21)) {
    throw std::invalid_argument(
        "Nucleus34: graph has >= 2^21 vertices; triangle keys would "
        "overflow their 3x21-bit packing");
  }
  NucleusDecomposition result;

  // Enumerate and index all triangles (ascending triples).
  std::unordered_map<uint64_t, uint32_t> id_of;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (v <= u) continue;
      ForEachCommonNeighbor(g, u, v, [&](VertexId w) {
        if (w > v) {
          const uint32_t id = static_cast<uint32_t>(result.triangles.size());
          result.triangles.push_back({u, v, w});
          id_of.emplace(PackTriple(u, v, w), id);
        }
      });
    }
  }

  // Support = 4-cliques per triangle: a count-only 3-way intersection,
  // so the tally skips the per-element callback entirely.
  const uint32_t t = static_cast<uint32_t>(result.triangles.size());
  std::vector<uint32_t> support(t, 0);
  for (uint32_t i = 0; i < t; ++i) {
    const auto& tri = result.triangles[i];
    support[i] = CountCommonNeighbors(g, tri[0], tri[1], tri[2]);
  }

  auto triangle_id = [&](VertexId a, VertexId b, VertexId c) {
    VertexId x = a, y = b, z = c;
    if (x > y) std::swap(x, y);
    if (y > z) std::swap(y, z);
    if (x > y) std::swap(x, y);
    return id_of.find(PackTriple(x, y, z))->second;
  };
  // Set when a triangle is processed, not when it is queued: a queued
  // triangle still closes its 4-cliques until its own turn comes.
  std::vector<char> peeled(t, 0);
  PeelByLevel(&support, [&](uint32_t i, auto& demote) {
    peeled[i] = 1;
    const auto& tri = result.triangles[i];
    ForEachCommonNeighbor(g, tri[0], tri[1], tri[2], [&](VertexId d) {
      // 4-clique {tri, d}: demote its other three triangles iff all are
      // still present (otherwise the clique was already destroyed).
      const uint32_t t1 = triangle_id(tri[0], tri[1], d);
      const uint32_t t2 = triangle_id(tri[0], tri[2], d);
      const uint32_t t3 = triangle_id(tri[1], tri[2], d);
      if (peeled[t1] || peeled[t2] || peeled[t3]) return;
      demote(t1);
      demote(t2);
      demote(t3);
    });
  });
  result.nucleus_numbers = std::move(support);
  return result;
}

std::vector<uint32_t> NucleusEdgeNumbers(const Graph& g) {
  const NucleusDecomposition decomposition = Nucleus34(g);
  const EdgeIndex index(g);
  std::vector<uint32_t> edge_values(index.NumEdges(), 0);
  for (size_t i = 0; i < decomposition.triangles.size(); ++i) {
    const auto& tri = decomposition.triangles[i];
    const uint32_t value = decomposition.nucleus_numbers[i];
    for (const uint32_t e : {index.EdgeId(tri[0], tri[1]),
                             index.EdgeId(tri[0], tri[2]),
                             index.EdgeId(tri[1], tri[2])}) {
      edge_values[e] = std::max(edge_values[e], value);
    }
  }
  return edge_values;
}

}  // namespace graphscape
