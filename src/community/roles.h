// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Structural roles (paper §III-B, Fig. 9 / Table III): which part a vertex
// plays inside its community — the paper's hub / dense-band / periphery /
// whisker reading of the Amazon co-purchase terrain. ClassifyRoles maps
// community members onto those four roles with deterministic structural
// thresholds (degree vs. community mean, core number within the
// community); Fig. 9 colors the community-score terrain by them and
// RoleAccuracy scores them against planted ground truth.

#ifndef GRAPHSCAPE_COMMUNITY_ROLES_H_
#define GRAPHSCAPE_COMMUNITY_ROLES_H_

#include <cstdint>
#include <vector>

#include "community/vertex_role.h"
#include "graph/graph.h"
#include "terrain/render.h"

namespace graphscape {

/// The Fig. 9 color scheme: green / blue / red / yellow / gray.
Rgb RoleColor(VertexRole role);

/// Names the part each community member plays; vertices outside
/// `community` map to kBackground. The thresholds apply to the subgraph
/// induced by `community`: whiskers are its core-1 fringe, hubs its
/// extreme-degree vertices (degree >= 3.5x the community mean), the dense
/// band its deep cores (core number >= 0.55x the community max),
/// periphery the rest.
std::vector<VertexRole> ClassifyRoles(const Graph& g,
                                      const std::vector<VertexId>& community);

/// Fraction of vertices planted as non-background whose predicted role
/// matches. 1.0 when there are no such vertices.
double RoleAccuracy(const std::vector<VertexRole>& predicted,
                    const std::vector<VertexRole>& planted);

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMUNITY_ROLES_H_
