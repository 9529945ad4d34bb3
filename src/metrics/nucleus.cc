// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/nucleus.h"

#include <algorithm>
#include <utility>

#include "common/peel_by_level.h"
#include "graph/intersect.h"
#include "metrics/peel_runs.h"

namespace graphscape {
namespace {

using internal::KeepLive;
using internal::kPeeled;
using internal::Pair;

// The edge ids of triangle (u, v, w), u < v < w: {u, v}, {u, w} and
// {v, w}. Edge k is opposite corner 2 - k.
using TriangleEdges = std::array<uint32_t, 3>;

// Calls emit(u, v, w, edges) for every triangle u < v < w, ascending.
// Pivot u marks its neighbours above u with 1 + the edge id, and each of
// them, v, walks its own neighbours above v for marks. When u has
// Skewed-fewer left above v, those gallop through v's run instead, so a
// hub is not walked once per smaller neighbour. Edge ids are read off
// the vertices' {neighbour, edge} runs, BuildRuns(g). `mark` is all
// zero on entry and on return.
template <typename Emit>
void ForEachTriangle(const Graph& g, const std::vector<Pair>& vertex_runs,
                     std::vector<uint32_t>& mark, Emit&& emit) {
  const std::vector<uint32_t>& offsets = g.Offsets();
  const VertexId* adj = g.Adjacency().data();
  const Pair* slot = vertex_runs.data();
  const auto first_above = [&](VertexId x) {
    return static_cast<uint32_t>(
        std::upper_bound(adj + offsets[x], adj + offsets[x + 1], x) - adj);
  };
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    const uint32_t u_lo = first_above(u), u_hi = offsets[u + 1];
    if (u_hi - u_lo < 2) continue;  // u is no triangle's lowest vertex
    for (uint32_t s = u_lo; s < u_hi; ++s) mark[adj[s]] = slot[s].id + 1;
    for (uint32_t s = u_lo; s + 1 < u_hi; ++s) {  // the last closes none
      const VertexId v = adj[s];
      const uint32_t uv = slot[s].id;
      const uint32_t v_lo = first_above(v), v_hi = offsets[v + 1];
      if (intersect::detail::Skewed(u_hi - s - 1, v_hi - v_lo)) {
        intersect::detail::ForEachMatch(
            adj + s + 1, adj + u_hi, adj + v_lo, adj + v_hi, true,
            [&](const VertexId* pu, const VertexId* pv) {
              const uint32_t vw = slot[pv - adj].id;
              emit(u, v, *pu, TriangleEdges{uv, mark[*pu] - 1, vw});
            });
        continue;
      }
      for (uint32_t t = v_lo; t < v_hi; ++t) {
        const uint32_t uw = mark[adj[t]];
        if (uw != 0) {
          emit(u, v, adj[t], TriangleEdges{uv, uw - 1, slot[t].id});
        }
      }
    }
    for (uint32_t s = u_lo; s < u_hi; ++s) mark[adj[s]] = 0;
  }
}

// Nucleus34, plus every triangle's edges. Edge e's run, runs[start[e],
// end[e]), holds a {third vertex, triangle id} pair per triangle on e,
// sorted by third vertex because the fill goes in triangle order. A
// vertex d in two of T's runs closes the 4-clique {T, d}.
NucleusDecomposition Decompose(const Graph& g,
                               std::vector<TriangleEdges>* edges_of) {
  std::vector<uint32_t> mark(g.NumVertices(), 0);
  std::vector<uint32_t> start;
  std::vector<uint32_t> end;
  std::vector<Pair> runs;
  NucleusDecomposition result;
  std::vector<TriangleEdges>& edges = *edges_of;
  {
    // K-Truss support is the number of triangles on each edge, so its
    // prefix sums place the runs and one enumeration fills them. The
    // vertex runs are freed before the 4-clique support pass allocates.
    const std::vector<Pair> vertex_runs = internal::BuildRuns(g);
    start = internal::CountSupport(g, vertex_runs, mark);
    uint32_t total = 0;
    for (uint32_t& s : start) {
      const uint32_t triangles = s;
      s = total;
      total += triangles;
    }
    result.triangles.resize(total / 3);
    edges.resize(total / 3);
    runs.resize(total);
    end = start;
    uint32_t t = 0;
    ForEachTriangle(g, vertex_runs, mark, [&](VertexId u, VertexId v,
                                              VertexId w,
                                              const TriangleEdges& e) {
      result.triangles[t] = {u, v, w};
      edges[t] = e;
      runs[end[e[0]]++] = {w, t};
      runs[end[e[1]]++] = {v, t};
      runs[end[e[2]]++] = {u, t};
      ++t;
    });
  }

  // T's edges as indices into edges[t], shortest live run first.
  const auto by_length = [&](uint32_t t) {
    std::array<int, 3> k = {0, 1, 2};
    const auto length = [&](int i) {
      return end[edges[t][i]] - start[edges[t][i]];
    };
    if (length(k[0]) > length(k[1])) std::swap(k[0], k[1]);
    if (length(k[1]) > length(k[2])) std::swap(k[1], k[2]);
    if (length(k[0]) > length(k[1])) std::swap(k[0], k[1]);
    return k;
  };

  // Support = 4-cliques per triangle: the third vertices of its shortest
  // run counted over its middle run.
  const uint32_t num_triangles = static_cast<uint32_t>(edges.size());
  std::vector<uint32_t> support(num_triangles);
  for (uint32_t t = 0; t < num_triangles; ++t) {
    const std::array<int, 3> k = by_length(t);
    const uint32_t a = edges[t][k[0]], b = edges[t][k[1]];
    for (uint32_t i = start[a]; i < end[a]; ++i) mark[runs[i].w] = 1;
    uint32_t cliques = 0;
    for (uint32_t i = start[b]; i < end[b]; ++i) cliques += mark[runs[i].w];
    for (uint32_t i = start[a]; i < end[a]; ++i) mark[runs[i].w] = 0;
    support[t] = cliques;
  }

  // The peel. Runs hold the triangles not yet peeled (queued ones close
  // 4-cliques until their turn) and tombstones. Peeling T marks its
  // shortest run with 1 + triangle id, walks its middle run and gallops
  // through its longest for each marked vertex: the clique is intact if
  // all three pairs are live. Both walks compact their runs; in the
  // longest, T becomes a tombstone, as walking a hub edge's run for every
  // triangle on it would be quadratic.
  const auto key = [](const Pair& p) { return p.w; };
  Pair* const base = runs.data();
  PeelByLevel(&support, [&](uint32_t t, auto& demote) {
    const std::array<int, 3> k = by_length(t);
    const uint32_t a = edges[t][k[0]], b = edges[t][k[1]], c = edges[t][k[2]];
    const auto keep_live = [&](uint32_t e, auto&& visit) {
      end[e] = static_cast<uint32_t>(
          KeepLive(base + start[e], base + end[e], t, visit) - base);
    };
    keep_live(a, [&](const Pair& p, bool live) {
      mark[p.w] = live ? p.id + 1 : 0;
    });
    Pair* q = base + start[c];
    Pair* const c_hi = base + end[c];
    keep_live(b, [&](const Pair& p, bool live) {
      const uint32_t face = mark[p.w];
      if (!live || face == 0) return;
      q = intersect::detail::GallopSeek(q, c_hi, p.w, key);
      if (q != c_hi && q->w == p.w && q->id != kPeeled) {
        demote(face - 1);
        demote(p.id);
        demote(q->id);
      }
    });
    for (uint32_t i = start[a]; i < end[a]; ++i) mark[runs[i].w] = 0;
    const VertexId corner = result.triangles[t][2 - k[2]];
    intersect::detail::GallopSeek(base + start[c], c_hi, corner, key)->id =
        kPeeled;
  });
  result.nucleus_numbers = std::move(support);
  return result;
}

}  // namespace

NucleusDecomposition Nucleus34(const Graph& g) {
  std::vector<TriangleEdges> edges;
  return Decompose(g, &edges);
}

std::vector<uint32_t> NucleusEdgeNumbers(const Graph& g) {
  std::vector<TriangleEdges> edges;
  const NucleusDecomposition decomposition = Decompose(g, &edges);
  std::vector<uint32_t> edge_values(g.NumEdges(), 0);
  for (size_t t = 0; t < edges.size(); ++t) {
    const uint32_t value = decomposition.nucleus_numbers[t];
    for (const uint32_t e : edges[t]) {
      edge_values[e] = std::max(edge_values[e], value);
    }
  }
  return edge_values;
}

}  // namespace graphscape
