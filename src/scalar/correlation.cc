// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/correlation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "graph/intersect.h"
#include "scalar/tree_core.h"
#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

// Centered two-pass Pearson over an index window; the shared kernel of
// the global and the per-neighborhood paths.
template <typename IndexRange>
double PearsonOver(const IndexRange& indices, uint32_t count,
                   const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (count < 3) return 0.0;
  double mean_a = 0.0, mean_b = 0.0;
  for (const uint32_t i : indices) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= count;
  mean_b /= count;
  double var_a = 0.0, var_b = 0.0, cov = 0.0;
  for (const uint32_t i : indices) {
    const double da = a[i] - mean_a, db = b[i] - mean_b;
    var_a += da * da;
    var_b += db * db;
    cov += da * db;
  }
  const double denom = std::sqrt(var_a * var_b);
  if (!(denom > 0.0)) return 0.0;  // constant window: neutral
  return cov / denom;
}

// All indices 0..n-1 without materializing them.
struct Iota {
  uint32_t n;
  struct It {
    uint32_t i;
    uint32_t operator*() const { return i; }
    It& operator++() {
      ++i;
      return *this;
    }
    bool operator!=(const It& o) const { return i != o.i; }
  };
  It begin() const { return It{0}; }
  It end() const { return It{n}; }
};

// The closed neighborhood {v} ∪ N(v) as an index range over the CSR run.
struct ClosedNeighborhood {
  const Graph* g;
  VertexId v;
  struct It {
    const VertexId* p;
    const VertexId* last;
    VertexId self;
    bool at_self;
    uint32_t operator*() const { return at_self ? self : *p; }
    It& operator++() {
      if (at_self) {
        at_self = false;
      } else {
        ++p;
      }
      return *this;
    }
    bool operator!=(const It& o) const {
      return at_self != o.at_self || p != o.p;
    }
  };
  It begin() const {
    const Graph::NeighborRange r = g->Neighbors(v);
    return It{r.begin(), r.end(), v, true};
  }
  It end() const {
    const Graph::NeighborRange r = g->Neighbors(v);
    return It{r.end(), r.end(), v, false};
  }
};

}  // namespace

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  assert(a.size() == b.size());
  return PearsonOver(Iota{static_cast<uint32_t>(a.size())},
                     static_cast<uint32_t>(a.size()), a, b);
}

std::vector<double> AverageRanks(const std::vector<double>& values) {
  // The trees' linear-time sweep sort orders values descending with
  // equal values (-0.0 and +0.0 included) adjacent, so position p holds
  // ascending rank n-1-p and every tie run is one contiguous stretch.
  const uint32_t n = static_cast<uint32_t>(values.size());
  std::vector<uint32_t> order;
  tree_core::SortSweepOrder(values, &order);
  std::vector<double> ranks(n);
  uint32_t i = 0;
  while (i < n) {
    uint32_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg = 0.5 * ((n - 1 - j) + (n - 1 - i));
    for (uint32_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  assert(a.size() == b.size());
  return PearsonCorrelation(AverageRanks(a), AverageRanks(b));
}

std::vector<double> LocalCorrelationIndices(const Graph& g,
                                            const VertexScalarField& a,
                                            const VertexScalarField& b) {
  assert(a.Size() == g.NumVertices() && b.Size() == g.NumVertices());
  std::vector<double> lci(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    lci[v] = PearsonOver(ClosedNeighborhood{&g, v}, g.Degree(v) + 1,
                         a.Values(), b.Values());
  }
  return lci;
}

double Gci(const Graph& g, const VertexScalarField& a,
           const VertexScalarField& b) {
  if (g.NumVertices() == 0) return 0.0;
  const std::vector<double> lci = LocalCorrelationIndices(g, a, b);
  double sum = 0.0;
  for (const double v : lci) sum += v;
  return sum / g.NumVertices();
}

VertexScalarField OutlierScoreField(const Graph& g,
                                    const VertexScalarField& a,
                                    const VertexScalarField& b) {
  std::vector<double> values = LocalCorrelationIndices(g, a, b);
  for (double& v : values) v = -v;
  return VertexScalarField("-LCI(" + a.Name() + "," + b.Name() + ")",
                           std::move(values));
}

std::vector<uint32_t> TopPeakMembers(const SuperTree& tree, uint32_t k) {
  std::vector<uint32_t> members;
  for (const Peak& peak : TopPeaks(tree, k)) {
    const MemberRange range = tree.Members(peak.super_node);
    members.insert(members.end(), range.begin(), range.end());
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return members;
}

double SortedJaccard(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  const uint32_t na = static_cast<uint32_t>(a.size());
  const uint32_t nb = static_cast<uint32_t>(b.size());
  const uint32_t both = intersect::Count(a.data(), na, b.data(), nb);
  const uint32_t either = na + nb - both;
  if (either == 0) return 1.0;
  return static_cast<double>(both) / either;
}

double TopPeakJaccard(const SuperTree& a, const SuperTree& b, uint32_t k) {
  // Checked in every build type: the two trees come from independent
  // builds, and mixing element spaces (|V| vs |E|) would compare ids
  // that name different things, not merely return a wrong number.
  if (a.NumElements() != b.NumElements()) {
    throw std::invalid_argument(
        "TopPeakJaccard: trees contract different element spaces (" +
        std::to_string(a.NumElements()) + " vs " +
        std::to_string(b.NumElements()) +
        "); compare vertex fields with vertex fields, edge fields with "
        "edge fields");
  }
  return SortedJaccard(TopPeakMembers(a, k), TopPeakMembers(b, k));
}

}  // namespace graphscape
