// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Offline scrub / repair tool for the TreeArtifact cache — the admin
// face of ArtifactCache::Scrub(), and the harness CI's fault-injection
// job drives end to end (corrupt a cache on purpose, assert the scrub
// repairs it, assert a second scrub is clean).
//
//   cache_fsck build <root>           populate <root> with deterministic
//                                     demo artifacts (seeded generators)
//   cache_fsck scrub <root>           recover + verify + repair
//   cache_fsck ls <root>              list manifest keys
//   cache_fsck corrupt <root> [key]   flip one byte in an entry file
//                                     (first key when omitted)
//   cache_fsck kill-manifest <root>   delete MANIFEST (simulated crash)
//   cache_fsck tree-write <dir>       build KC (vertex) and KT (edge)
//                                     super trees of GrQc and WikiVote
//                                     and save them as .gsta files
//   cache_fsck tree-verify <dir>      load each file tree-write wrote,
//                                     and fail unless re-serializing it
//                                     AND this build's own tree of the
//                                     same dataset give the disk bytes
//
// CI runs tree-write on the gcc leg and tree-verify on the clang leg,
// pinning the artifact format and the tree construction across
// compilers.
//
// Exit codes: 0 = cache is clean (nothing to fix) or every tree file
// verified, 1 = problems were found AND repaired (rerun to confirm 0) or
// a tree file did not verify, 2 = usage error or an unrecoverable
// failure.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "common/status.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/artifact_cache.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_field.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "scalar/tree_io.h"

namespace {

using graphscape::ArtifactCache;
using graphscape::ArtifactKey;
using graphscape::BuildEdgeScalarTree;
using graphscape::BuildVertexScalarTree;
using graphscape::DatasetId;
using graphscape::Status;
using graphscape::StatusOr;
using graphscape::TreeArtifact;

int Usage() {
  std::fprintf(stderr,
               "usage: cache_fsck build|scrub|ls <root>\n"
               "       cache_fsck corrupt <root> [key]\n"
               "       cache_fsck kill-manifest <root>\n"
               "       cache_fsck tree-write|tree-verify <dir>\n");
  return 2;
}

StatusOr<ArtifactCache> OpenCache(const std::string& root) {
  return ArtifactCache::Open(root);
}

int Build(const std::string& root) {
  StatusOr<ArtifactCache> cache = OpenCache(root);
  if (!cache.ok()) {
    std::fprintf(stderr, "cache_fsck: open: %s\n",
                 cache.status().ToString().c_str());
    return 2;
  }
  // Two seeded graphs, KC field each: enough entries that corruption and
  // recovery of ONE is observable against intact neighbors.
  const struct {
    const char* name;
    uint32_t num_vertices;
    uint64_t seed;
  } kDemos[] = {{"ba-demo", 400, 7}, {"er-demo", 300, 11}};
  for (const auto& demo : kDemos) {
    graphscape::Rng rng(demo.seed);
    const graphscape::Graph g =
        demo.seed == 7
            ? graphscape::BarabasiAlbert(demo.num_vertices, 3, &rng)
            : graphscape::ErdosRenyi(demo.num_vertices, 0.02, &rng);
    const auto kc = graphscape::VertexScalarField::FromCounts(
        "KC", graphscape::CoreNumbers(g));
    graphscape::TreeArtifact artifact;
    artifact.tree =
        graphscape::SuperTree(graphscape::BuildVertexScalarTree(g, kc));
    artifact.field_name = kc.Name();
    artifact.field_values = kc.Values();
    const Status put =
        cache.value().Put(ArtifactKey{demo.name, "KC"}, artifact);
    if (!put.ok()) {
      std::fprintf(stderr, "cache_fsck: put %s: %s\n", demo.name,
                   put.ToString().c_str());
      return 2;
    }
    std::printf("stored %s/KC\n", demo.name);
  }
  return 0;
}

int Scrub(const std::string& root) {
  StatusOr<ArtifactCache> cache = OpenCache(root);
  if (!cache.ok()) {
    std::fprintf(stderr, "cache_fsck: open: %s\n",
                 cache.status().ToString().c_str());
    return 2;
  }
  // Open() itself recovers (sweeps temps, rebuilds a lost manifest,
  // adopts strays); report that work too, or a post-crash scrub would
  // claim the cache was always clean.
  const graphscape::CacheStats& open_stats = cache.value().stats();
  const bool open_repaired = open_stats.temps_swept != 0 ||
                             open_stats.manifest_recovered ||
                             open_stats.strays_adopted != 0 ||
                             open_stats.corrupt_quarantined != 0;
  if (open_repaired) {
    std::printf(
        "open: %llu temps swept, manifest %s, %llu strays adopted, "
        "%llu quarantined\n",
        static_cast<unsigned long long>(open_stats.temps_swept),
        open_stats.manifest_recovered ? "RECOVERED" : "ok",
        static_cast<unsigned long long>(open_stats.strays_adopted),
        static_cast<unsigned long long>(open_stats.corrupt_quarantined));
  }
  StatusOr<graphscape::ScrubReport> report = cache.value().Scrub();
  if (!report.ok()) {
    std::fprintf(stderr, "cache_fsck: scrub: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  const graphscape::ScrubReport& r = report.value();
  std::printf("scrub: %llu checked, %llu ok, %llu temps removed, "
              "%llu missing dropped\n",
              static_cast<unsigned long long>(r.entries_checked),
              static_cast<unsigned long long>(r.entries_ok),
              static_cast<unsigned long long>(r.temps_removed),
              static_cast<unsigned long long>(r.missing_dropped));
  for (const std::string& key : r.quarantined) {
    std::printf("quarantined: %s\n", key.c_str());
  }
  for (const std::string& key : r.adopted) {
    std::printf("adopted: %s\n", key.c_str());
  }
  return (r.Clean() && !open_repaired) ? 0 : 1;
}

int List(const std::string& root) {
  StatusOr<ArtifactCache> cache = OpenCache(root);
  if (!cache.ok()) {
    std::fprintf(stderr, "cache_fsck: open: %s\n",
                 cache.status().ToString().c_str());
    return 2;
  }
  for (const std::string& key : cache.value().Keys()) {
    std::printf("%s\n", key.c_str());
  }
  return 0;
}

int Corrupt(const std::string& root, const std::string& key_arg) {
  StatusOr<ArtifactCache> cache = OpenCache(root);
  if (!cache.ok() || cache.value().Keys().empty()) {
    std::fprintf(stderr, "cache_fsck: no cache entries at %s\n",
                 root.c_str());
    return 2;
  }
  const std::string key =
      key_arg.empty() ? cache.value().Keys().front() : key_arg;
  const std::string path = root + "/entries/" +
                           ArtifactCache::EncodeKey(key) + ".gsta";
  StatusOr<std::string> bytes = graphscape::ReadFileBytes(path);
  if (!bytes.ok()) {
    std::fprintf(stderr, "cache_fsck: read %s: %s\n", path.c_str(),
                 bytes.status().ToString().c_str());
    return 2;
  }
  std::string mutated = bytes.value();
  mutated[mutated.size() / 2] =
      static_cast<char>(mutated[mutated.size() / 2] ^ 0x01);
  const Status wrote =
      graphscape::WriteFileBytes(path, mutated, /*sync=*/true);
  if (!wrote.ok()) {
    std::fprintf(stderr, "cache_fsck: write %s: %s\n", path.c_str(),
                 wrote.ToString().c_str());
    return 2;
  }
  std::printf("corrupted %s (flipped one bit mid-file)\n", key.c_str());
  return 0;
}

int KillManifest(const std::string& root) {
  const Status gone = graphscape::RemoveFile(root + "/MANIFEST");
  if (!gone.ok()) {
    std::fprintf(stderr, "cache_fsck: %s\n", gone.ToString().c_str());
    return 2;
  }
  std::printf("removed %s/MANIFEST\n", root.c_str());
  return 0;
}

struct NamedArtifact {
  std::string filename;
  TreeArtifact artifact;
};

// The artifact set tree-write and tree-verify agree on: deterministic
// datasets, one vertex tree and one edge tree each.
std::vector<NamedArtifact> TreeArtifacts() {
  std::vector<NamedArtifact> artifacts;
  for (const DatasetId id : {DatasetId::kGrQc, DatasetId::kWikiVote}) {
    const graphscape::Dataset ds = graphscape::MakeDataset(id);
    const graphscape::Graph& g = ds.graph;
    const auto kc = graphscape::VertexScalarField::FromCounts(
        "KC", graphscape::CoreNumbers(g));
    const auto kt = graphscape::EdgeScalarField::FromCounts(
        "KT", graphscape::TrussNumbers(g));
    NamedArtifact vertex, edge;
    vertex.filename = std::string(ds.spec.name) + "_kc.gsta";
    vertex.artifact.tree = graphscape::SuperTree(BuildVertexScalarTree(g, kc));
    vertex.artifact.field_name = kc.Name();
    vertex.artifact.field_values = kc.Values();
    edge.filename = std::string(ds.spec.name) + "_kt.gsta";
    edge.artifact.tree = graphscape::SuperTree(BuildEdgeScalarTree(g, kt));
    edge.artifact.field_name = kt.Name();
    edge.artifact.field_values = kt.Values();
    artifacts.push_back(std::move(vertex));
    artifacts.push_back(std::move(edge));
  }
  return artifacts;
}

int TreeWrite(const std::string& dir) {
  for (const NamedArtifact& named : TreeArtifacts()) {
    const std::string path = dir + "/" + named.filename;
    const Status status = graphscape::SaveTreeArtifact(named.artifact, path);
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s (%u super nodes, %u elements)\n", path.c_str(),
                named.artifact.tree.NumNodes(),
                named.artifact.tree.NumElements());
  }
  return 0;
}

// Why `on_disk` does not verify against `named`, or "" when it does.
std::string TreeMismatch(const NamedArtifact& named,
                         const std::string& on_disk) {
  const StatusOr<TreeArtifact> loaded =
      graphscape::DeserializeTreeArtifact(on_disk);
  if (!loaded.ok()) return loaded.status().ToString();
  const StatusOr<std::string> reserialized =
      graphscape::SerializeTreeArtifact(loaded.value());
  if (!reserialized.ok() || reserialized.value() != on_disk) {
    return "re-serialization differs";
  }
  // The strongest cross-compiler pin: this build's own tree of the same
  // dataset must serialize to the writer's bytes exactly.
  const StatusOr<std::string> rebuilt =
      graphscape::SerializeTreeArtifact(named.artifact);
  if (!rebuilt.ok() || rebuilt.value() != on_disk) {
    return "locally rebuilt tree serializes differently";
  }
  return "";
}

int TreeVerify(const std::string& dir) {
  int failures = 0;
  for (const NamedArtifact& named : TreeArtifacts()) {
    const std::string path = dir + "/" + named.filename;
    const StatusOr<std::string> read = graphscape::ReadFileBytes(path);
    const std::string why = read.ok() ? TreeMismatch(named, read.value())
                                      : read.status().ToString();
    if (!why.empty()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), why.c_str());
      ++failures;
      continue;
    }
    std::printf("OK %s (%u super nodes, %u elements)\n", path.c_str(),
                named.artifact.tree.NumNodes(),
                named.artifact.tree.NumElements());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string root = argv[2];
  if (command == "build") return Build(root);
  if (command == "scrub") return Scrub(root);
  if (command == "ls") return List(root);
  if (command == "corrupt") return Corrupt(root, argc > 3 ? argv[3] : "");
  if (command == "kill-manifest") return KillManifest(root);
  if (command == "tree-write") return TreeWrite(root);
  if (command == "tree-verify") return TreeVerify(root);
  return Usage();
}
