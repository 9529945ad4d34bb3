// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fig. 7: large-scale terrains (Wikipedia, Cit-Patent) for K-Core and
// K-Truss fields, with the densest-structure drill-down the paper
// highlights (K-Truss with K=86, K-Core with K=64 on the real data).
// Runs on scale-divided analogues by default; set GRAPHSCAPE_FULL_SCALE=1
// to regenerate at paper scale.
//
// Both super trees are served through the crash-safe ArtifactCache
// (scalar/artifact_cache.h): the first run builds and persists them, and
// reruns load checksum-verified artifacts instead of re-running the
// K-Core/K-Truss sweeps — at paper scale that is the dominant cost. A
// corrupt or missing entry transparently falls back to a rebuild.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/artifact_cache.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/simplify.h"
#include "scalar/tree_queries.h"
#include "terrain/render.h"
#include "terrain/terrain_raster.h"

namespace {

using namespace graphscape;

bool Run(ArtifactCache& cache, DatasetId id, const std::string& out) {
  DatasetOptions options;
  if (bench::FullScale()) options.scale_divisor = 1;
  WallTimer timer;
  const Dataset ds = MakeDataset(id, options);
  std::printf("%s (1/%u scale): %u vertices, %llu edges [gen %.1fs]\n",
              ds.spec.name, ds.scale_divisor, ds.graph.NumVertices(),
              static_cast<unsigned long long>(ds.graph.NumEdges()),
              timer.Seconds());
  // The scale divisor is part of the cache key: a 1/16-scale Wikipedia and
  // the paper-scale one are different graphs, so they must never collide.
  const std::string dataset_key =
      std::string(ds.spec.name) + "@1-" + std::to_string(ds.scale_divisor);

  // K-Core terrain.
  timer.Restart();
  const StatusOr<TreeArtifact> core = cache.GetOrBuild(
      ArtifactKey{dataset_key, "KC"}, [&]() -> StatusOr<TreeArtifact> {
        const VertexScalarField kc =
            VertexScalarField::FromCounts("KC", CoreNumbers(ds.graph));
        TreeArtifact artifact;
        artifact.tree = SuperTree(BuildVertexScalarTree(ds.graph, kc));
        artifact.field_name = kc.Name();
        artifact.field_values = kc.Values();
        return artifact;
      });
  if (!core.ok()) {
    std::fprintf(stderr, "fig7: K-Core artifact for %s failed: %s\n",
                 ds.spec.name, core.status().ToString().c_str());
    return false;
  }
  const VertexScalarField kc(core.value().field_name,
                             core.value().field_values);
  const SuperTree& core_tree = core.value().tree;
  std::printf("  K-Core: densest K=%g, super tree %u nodes [%.1fs]\n",
              kc.MaxValue(), core_tree.NumNodes(), timer.Seconds());
  const auto core_peaks = PeaksAtLevel(core_tree, kc.MaxValue());
  for (const auto& peak : core_peaks)
    std::printf("    densest K-Core: %u vertices\n", peak.member_count);
  const HeightField core_field =
      RasterizeTerrain(BuildTerrainLayout(core_tree));
  (void)WritePpm(RenderOblique(core_field, HeightColors(core_tree), Camera{},
                               960, 720),
                 out + "/fig7_" + ds.spec.name + "_kcore.ppm");

  // K-Truss terrain (simplified tree for rendering, as §II-E prescribes for
  // large trees).
  timer.Restart();
  const StatusOr<TreeArtifact> truss = cache.GetOrBuild(
      ArtifactKey{dataset_key, "KT"}, [&]() -> StatusOr<TreeArtifact> {
        const EdgeScalarField kt =
            EdgeScalarField::FromCounts("KT", TrussNumbers(ds.graph));
        TreeArtifact artifact;
        artifact.tree = SuperTree(BuildEdgeScalarTree(ds.graph, kt));
        artifact.field_name = kt.Name();
        artifact.field_values = kt.Values();
        return artifact;
      });
  if (!truss.ok()) {
    std::fprintf(stderr, "fig7: K-Truss artifact for %s failed: %s\n",
                 ds.spec.name, truss.status().ToString().c_str());
    return false;
  }
  const EdgeScalarField kt(truss.value().field_name,
                           truss.value().field_values);
  const SuperTree& truss_tree = truss.value().tree;
  std::printf("  K-Truss: densest KT=%g, super tree %u nodes [%.1fs]\n",
              kt.MaxValue(), truss_tree.NumNodes(), timer.Seconds());
  const auto truss_peaks = PeaksAtLevel(truss_tree, kt.MaxValue());
  for (const auto& peak : truss_peaks)
    std::printf("    densest K-Truss: %u edges\n", peak.member_count);

  const SuperTree render_tree =
      truss_tree.NumNodes() > 50000
          ? SimplifiedEdgeSuperTree(ds.graph, kt, 64)
          : truss_tree;
  const HeightField truss_field =
      RasterizeTerrain(BuildTerrainLayout(render_tree));
  (void)WritePpm(RenderOblique(truss_field, HeightColors(render_tree),
                               Camera{}, 960, 720),
                 out + "/fig7_" + ds.spec.name + "_ktruss.ppm");
  return true;
}

}  // namespace

int main() {
  using namespace graphscape;
  bench::Banner("Fig. 7 — K-Cores and K-Trusses at scale",
                "paper Fig. 7(a)-(f): Wikipedia & Cit-Patent terrains + "
                "densest-structure drilldowns");
  const std::string out = bench::OutputDir();
  StatusOr<ArtifactCache> cache = ArtifactCache::Open(bench::CacheDir());
  if (!cache.ok()) {
    std::fprintf(stderr, "fig7: cannot open tree cache at %s: %s\n",
                 bench::CacheDir().c_str(),
                 cache.status().ToString().c_str());
    return 2;
  }
  std::printf("tree cache: %s\n", cache.value().root().c_str());
  if (!Run(cache.value(), DatasetId::kWikipedia, out)) return 1;
  if (!Run(cache.value(), DatasetId::kCitPatent, out)) return 1;
  const CacheStats& stats = cache.value().stats();
  std::printf("tree cache: %llu hits, %llu misses, %llu rebuilds, "
              "%llu quarantined\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.rebuilds),
              static_cast<unsigned long long>(stats.corrupt_quarantined));
  std::printf("shape check: scale-free link/citation graphs grow one "
              "dominant dense structure whose\nK value far exceeds the "
              "collaboration networks' (paper: K-Truss K=86, K-Core K=64).\n");
  return 0;
}
