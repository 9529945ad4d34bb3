// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "gen/datasets.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"

namespace graphscape {

namespace {

// Provenance rows (Table I order). paper_* are the public SNAP stats of
// the mimicked network; paper_avg_cc values are approximate, recorded to
// one's place of the published figures.
const DatasetSpec kSpecs[] = {
    {DatasetId::kGrQc, "GrQc", "ca-GrQc", 5242, 14496, 0.53, 1, 1001},
    {DatasetId::kWikiVote, "WikiVote", "wiki-Vote", 7115, 103689, 0.14, 2,
     1002},
    {DatasetId::kPPI, "PPI", "bio-PPI", 3890, 76584, 0.15, 1, 1003},
    {DatasetId::kAstro, "Astro", "ca-AstroPh", 18772, 198110, 0.63, 8, 1004},
    {DatasetId::kDBLP, "DBLP", "com-DBLP", 317080, 1049866, 0.63, 64, 1005},
    {DatasetId::kAmazon, "Amazon", "com-Amazon", 334863, 925872, 0.40, 64,
     1006},
    {DatasetId::kWikipedia, "Wikipedia", "wiki-Talk", 2394385, 5021410, 0.05,
     512, 1007},
    {DatasetId::kCitPatent, "CitPatent", "cit-Patents", 3774768, 16518948,
     0.08, 1024, 1008},
};

// Scaling holds average degree constant while dividing the vertex count,
// so edges shrink by ~1/divisor alongside nodes.
uint32_t ScaledVertexCount(const DatasetSpec& spec, uint32_t divisor) {
  const uint64_t n = spec.paper_nodes / std::max(1u, divisor);
  return static_cast<uint32_t>(std::max<uint64_t>(n, 64));
}

double TargetAverageDegree(const DatasetSpec& spec) {
  return 2.0 * static_cast<double>(spec.paper_edges) /
         static_cast<double>(spec.paper_nodes);
}

// Collaboration-class stand-in (GrQc/Astro/DBLP/Amazon): near-clique
// groups sized so that expected within-group degree plus 2·random_links
// hits the target. Each vertex holds ~4/3 group memberships
// (gen/generators.cc), hence the 3/(4p) inversion. The high-clustering
// networks pass random_links = 0 — every random cross-link dilutes
// triangle density, and the overlapping memberships already provide the
// inter-group connectivity.
Graph MakeCollaborationStandIn(uint32_t n, double target_deg, double within_p,
                               uint32_t planted_cores, uint32_t random_links,
                               Rng* rng) {
  CollaborationOptions options;
  options.num_vertices = n;
  const double within_deg = std::max(0.5, target_deg - 2.0 * random_links);
  const double group_size = 1.0 + 3.0 * within_deg / (4.0 * within_p);
  options.num_groups = std::max(
      1u, static_cast<uint32_t>(std::lround(4.0 * n / (3.0 * group_size))));
  options.within_group_probability = within_p;
  options.random_links_per_vertex = random_links;
  options.num_planted_cores = planted_cores;
  options.planted_core_size = std::min(16u, std::max(4u, n / 64));
  return CollaborationNetwork(options, rng);
}

// Vote/citation-class stand-in: preferential attachment with bursty
// per-vertex attachment counts. One vertex in `kBurstEvery` attaches
// `kBurstFactor`x as many edges, which fattens the degree tail beyond
// uniform BA (hub-heavy, low clustering — the wiki-Vote / cit-Patents
// shape) while keeping E[degree] = 2 * m_base * (1 + (factor-1)/every).
Graph MakeSkewedPreferentialStandIn(uint32_t n, double target_deg, Rng* rng) {
  constexpr uint32_t kBurstEvery = 8;
  constexpr uint32_t kBurstFactor = 8;
  constexpr double kMeanMultiplier =
      1.0 + static_cast<double>(kBurstFactor - 1) / kBurstEvery;
  const double mean_m = target_deg / 2.0 / kMeanMultiplier;
  const uint32_t m_base =
      std::max(1u, static_cast<uint32_t>(std::lround(mean_m)));

  GraphBuilder builder(n);
  std::vector<VertexId> targets;  // degree-proportional sampling pool
  // The pool holds both endpoints of every edge, so its final size
  // follows the random burst count. The mean plus 1% covers that spread
  // on any large graph (under 0.2% over seeds at CitPatent/4), so the
  // pool, as large as the edge list, is never copied into a doubled
  // buffer. That copy cost time and memory, and it made the heap that
  // generation leaves behind differ from seed to seed by tens of MB.
  targets.reserve(
      static_cast<size_t>(1.01 * 2.0 * kMeanMultiplier * m_base * n));

  // Seed clique large enough that even a burst vertex can find distinct
  // attachment targets right away.
  const uint32_t seed_size = std::min(n, 2 * m_base * kBurstFactor + 2);
  for (uint32_t u = 0; u < seed_size; ++u) {
    for (uint32_t v = u + 1; v < seed_size; ++v) {
      if (v == u + 1 || rng->UniformInt(seed_size) < 2) {
        builder.AddEdge(u, v);
        targets.push_back(u);
        targets.push_back(v);
      }
    }
  }

  std::vector<VertexId> picked;
  for (uint32_t v = seed_size; v < n; ++v) {
    uint32_t m = m_base;
    if (rng->UniformInt(kBurstEvery) == 0) m *= kBurstFactor;
    m = std::min(m, v / 2 + 1);
    picked.assign(m, kInvalidVertex);
    uint32_t count = 0;
    while (count < m) {
      const VertexId t =
          targets[rng->UniformInt(static_cast<uint32_t>(targets.size()))];
      bool seen = false;
      for (uint32_t i = 0; i < count; ++i) seen |= (picked[i] == t);
      if (!seen) picked[count++] = t;
    }
    for (uint32_t i = 0; i < m; ++i) {
      builder.AddEdge(v, picked[i]);
      targets.push_back(v);
      targets.push_back(picked[i]);
    }
  }
  return builder.Build();
}

// PPI-class stand-in: an Erdős–Rényi backbone carrying ~60% of the
// target degree, overlaid with one near-clique community per vertex
// carrying the rest — random interaction background plus protein
// complexes, which is where PPI clustering comes from.
Graph MakeErWithCommunitiesStandIn(uint32_t n, double target_deg, Rng* rng) {
  constexpr double kErFraction = 0.5;
  constexpr double kWithinProbability = 0.5;
  const double p_er =
      std::min(1.0, kErFraction * target_deg / std::max(1u, n - 1));
  const Graph er = ErdosRenyi(n, p_er, rng);

  GraphBuilder builder(n);
  builder.Reserve(static_cast<size_t>(target_deg * n));
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : er.Neighbors(u)) {
      if (u < v) builder.AddEdge(u, v);
    }
  }

  // Members needed so p_within of them supply the non-ER degree share.
  const double size_target =
      (1.0 - kErFraction) * target_deg / kWithinProbability + 1.0;
  const uint32_t community_size =
      std::max(3u, static_cast<uint32_t>(std::lround(size_target)));
  const uint32_t num_communities = std::max(1u, n / community_size);
  std::vector<std::vector<VertexId>> members(num_communities);
  for (VertexId v = 0; v < n; ++v) {
    members[rng->UniformInt(num_communities)].push_back(v);
  }
  for (const auto& community : members) {
    for (size_t i = 0; i + 1 < community.size(); ++i) {
      for (size_t j = i + 1; j < community.size(); ++j) {
        if (rng->UniformDouble() < kWithinProbability) {
          builder.AddEdge(community[i], community[j]);
        }
      }
    }
  }
  return builder.Build();
}

}  // namespace

const std::vector<DatasetId>& AllDatasetIds() {
  static const std::vector<DatasetId> kIds = [] {
    std::vector<DatasetId> ids;
    for (const DatasetSpec& spec : kSpecs) ids.push_back(spec.id);
    return ids;
  }();
  return kIds;
}

const DatasetSpec& GetDatasetSpec(DatasetId id) {
  for (const DatasetSpec& spec : kSpecs) {
    if (spec.id == id) return spec;
  }
  throw std::invalid_argument("GetDatasetSpec: unknown DatasetId");
}

Dataset MakeDataset(DatasetId id, const DatasetOptions& options) {
  const DatasetSpec& spec = GetDatasetSpec(id);
  const uint32_t divisor =
      options.scale_divisor != 0 ? options.scale_divisor : spec.default_divisor;
  const uint64_t seed = options.seed != 0 ? options.seed : spec.default_seed;
  const uint32_t n = ScaledVertexCount(spec, divisor);
  const double target_deg = TargetAverageDegree(spec);
  Rng rng(seed);

  Graph graph;
  switch (id) {
    case DatasetId::kGrQc:
      graph = MakeCollaborationStandIn(n, target_deg, 0.7, 2, 0, &rng);
      break;
    case DatasetId::kAstro:
      graph = MakeCollaborationStandIn(n, target_deg, 0.7, 3, 0, &rng);
      break;
    case DatasetId::kDBLP:
      graph = MakeCollaborationStandIn(n, target_deg, 0.7, 2, 0, &rng);
      break;
    case DatasetId::kAmazon:
      graph = MakeCollaborationStandIn(n, target_deg, 0.5, 1, 0, &rng);
      break;
    case DatasetId::kPPI:
      graph = MakeErWithCommunitiesStandIn(n, target_deg, &rng);
      break;
    case DatasetId::kWikiVote:
    case DatasetId::kCitPatent:
      graph = MakeSkewedPreferentialStandIn(n, target_deg, &rng);
      break;
    case DatasetId::kWikipedia: {
      // Plain preferential attachment: the hub tail is the point (this is
      // the dataset whose naive edge-tree cell the paper clocks at 16334s).
      const uint32_t m =
          std::max(1u, static_cast<uint32_t>(std::lround(target_deg / 2.0)));
      graph = BarabasiAlbert(n, m, &rng);
      break;
    }
  }
  return Dataset{spec, divisor, std::move(graph)};
}

}  // namespace graphscape
