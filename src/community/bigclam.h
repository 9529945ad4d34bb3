// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// BigCLAM-lite (paper ref [14]): overlapping community affiliations by
// nonnegative factorization of the adjacency structure under the model
// P(u ~ v) = 1 - exp(-F_u . F_v). The fit is a fixed budget of Jacobi
// batch projected-gradient steps: every iteration computes the NEW factor
// row of each vertex purely from the OLD factor matrix. Symmetry is broken
// deterministically by farthest-point BFS seeding plus a hash-based
// jitter — no stream-order randomness anywhere, so the fit is a pure
// function of (graph, options).
//
// The iteration loop is allocation-free in steady state: two factor
// buffers are preallocated and swapped (tests/allocation_test.cc pins the
// allocation count).

#ifndef GRAPHSCAPE_COMMUNITY_BIGCLAM_H_
#define GRAPHSCAPE_COMMUNITY_BIGCLAM_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "scalar/scalar_field.h"

namespace graphscape {

struct BigClamOptions {
  uint32_t num_communities = 4;
  /// Gradient steps. The fit runs the full budget (no convergence test —
  /// a data-dependent early exit would make runtime, and with it bench
  /// trajectories, shape-dependent).
  uint32_t iterations = 80;
  double step = 0.05;
  /// Projection box: factors live in [0, max_factor].
  double max_factor = 8.0;
  /// L1 pull toward 0 — keeps non-members' factors decaying instead of
  /// drifting on the flat part of the likelihood.
  double lambda = 0.05;
  /// Seeds the jitter hash; the BFS seeding itself is seed-free.
  uint64_t seed = 14;
};

/// Row-major nonnegative factor matrix F (num_vertices x num_communities).
struct BigClamAffiliations {
  uint32_t num_vertices = 0;
  uint32_t num_communities = 0;
  std::vector<double> factors;

  double At(VertexId v, uint32_t community) const {
    return factors[static_cast<size_t>(v) * num_communities + community];
  }
};

/// Deterministic in (g, options).
BigClamAffiliations BigClamFit(const Graph& g,
                               const BigClamOptions& options = {});

/// One community's factor column scaled to [0, 1] (by the column max; an
/// all-zero column stays zero). Named "bigclam<c>".
VertexScalarField CommunityScoreField(const BigClamAffiliations& affiliations,
                                      uint32_t community);

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMUNITY_BIGCLAM_H_
