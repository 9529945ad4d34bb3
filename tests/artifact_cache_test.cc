// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// ArtifactCache under normal operation: CRUD, persistence across Open,
// the GetOrBuild contract, key encoding, stats, and the on-disk promise
// that entry files are byte-identical to SerializeTreeArtifact output.
// The crash/corruption paths live in tests/recovery_test.cc.

#include "scalar/artifact_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "common/fs.h"
#include "common/rng.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_io.h"

namespace graphscape {
namespace {

TreeArtifact MakeArtifact(uint64_t seed) {
  Rng rng(seed);
  const Graph g = BarabasiAlbert(200, 3, &rng);
  const auto kc = VertexScalarField::FromCounts("KC", CoreNumbers(g));
  TreeArtifact artifact;
  artifact.tree = SuperTree(BuildVertexScalarTree(g, kc));
  artifact.field_name = kc.Name();
  artifact.field_values = kc.Values();
  return artifact;
}

std::string MustSerialize(const TreeArtifact& artifact) {
  StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

// Fresh, empty cache root per test (removes leftovers from a previous
// run of the same test).
std::string FreshRoot(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/gs_cache_" + name;
  for (const char* sub : {"/entries", "/quarantine", ""}) {
    const std::string dir = root + sub;
    const StatusOr<std::vector<std::string>> names = ListDir(dir);
    if (!names.ok()) continue;
    for (const std::string& file : names.value()) {
      (void)RemoveFile(dir + "/" + file);
    }
    ::rmdir(dir.c_str());
  }
  return root;
}

ArtifactCache MustOpen(const std::string& root) {
  StatusOr<ArtifactCache> cache = ArtifactCache::Open(root);
  EXPECT_TRUE(cache.ok()) << cache.status().ToString();
  return std::move(cache).value();
}

TEST(ArtifactCacheTest, PutGetRoundtripsByteIdentically) {
  ArtifactCache cache = MustOpen(FreshRoot("roundtrip"));
  const TreeArtifact artifact = MakeArtifact(3);
  const ArtifactKey key{"demo", "KC"};
  ASSERT_TRUE(cache.Put(key, artifact).ok());
  EXPECT_TRUE(cache.Contains(key));

  const StatusOr<TreeArtifact> loaded = cache.Get(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(artifact));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ArtifactCacheTest, EntryFileIsExactlyTheSerializedArtifact) {
  // The mmap-ready promise: what's on disk IS SerializeTreeArtifact's
  // output, nothing wrapped around it.
  const std::string root = FreshRoot("rawbytes");
  ArtifactCache cache = MustOpen(root);
  const TreeArtifact artifact = MakeArtifact(5);
  ASSERT_TRUE(cache.Put(ArtifactKey{"demo", "KC"}, artifact).ok());
  const StatusOr<std::string> on_disk = ReadFileBytes(
      root + "/entries/" + ArtifactCache::EncodeKey("demo/KC") + ".gsta");
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk.value(), MustSerialize(artifact));
}

TEST(ArtifactCacheTest, MissIsNotFound) {
  ArtifactCache cache = MustOpen(FreshRoot("miss"));
  const StatusOr<TreeArtifact> missing =
      cache.Get(ArtifactKey{"never", "stored"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ArtifactCacheTest, EntriesSurviveReopen) {
  const std::string root = FreshRoot("reopen");
  const TreeArtifact artifact = MakeArtifact(7);
  {
    ArtifactCache cache = MustOpen(root);
    ASSERT_TRUE(cache.Put(ArtifactKey{"ds", "KC"}, artifact).ok());
    ASSERT_TRUE(cache.Put(ArtifactKey{"ds", "KT"}, MakeArtifact(9)).ok());
  }
  ArtifactCache cache = MustOpen(root);
  EXPECT_FALSE(cache.stats().manifest_recovered);
  EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"ds/KC", "ds/KT"}));
  const StatusOr<TreeArtifact> loaded = cache.Get(ArtifactKey{"ds", "KC"});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(artifact));
}

TEST(ArtifactCacheTest, PutReplaces) {
  ArtifactCache cache = MustOpen(FreshRoot("replace"));
  const ArtifactKey key{"ds", "KC"};
  ASSERT_TRUE(cache.Put(key, MakeArtifact(3)).ok());
  const TreeArtifact replacement = MakeArtifact(11);
  ASSERT_TRUE(cache.Put(key, replacement).ok());
  const StatusOr<TreeArtifact> loaded = cache.Get(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(replacement));
}

TEST(ArtifactCacheTest, GetOrBuildBuildsOnceThenHits) {
  ArtifactCache cache = MustOpen(FreshRoot("getorbuild"));
  const ArtifactKey key{"ds", "KC"};
  int builds = 0;
  const auto builder = [&]() -> StatusOr<TreeArtifact> {
    ++builds;
    return MakeArtifact(13);
  };
  const StatusOr<TreeArtifact> first = cache.GetOrBuild(key, builder);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const StatusOr<TreeArtifact> second = cache.GetOrBuild(key, builder);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.stats().rebuilds, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(MustSerialize(second.value()), MustSerialize(first.value()));
}

TEST(ArtifactCacheTest, GetOrBuildPropagatesBuilderFailure) {
  ArtifactCache cache = MustOpen(FreshRoot("builderfail"));
  const StatusOr<TreeArtifact> result = cache.GetOrBuild(
      ArtifactKey{"ds", "KC"}, []() -> StatusOr<TreeArtifact> {
        return Status::ResourceExhausted("builder over budget");
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(cache.Contains(ArtifactKey{"ds", "KC"}));
}

TEST(ArtifactCacheTest, KeyEncodingIsBijectiveAndFilesystemSafe) {
  for (const std::string& canonical :
       {std::string("plain/KC"), std::string("with space/and%percent"),
        std::string("dots.and-dashes_ok/f"), std::string("slash//double"),
        std::string("unicode/\xc3\xa9")}) {
    const std::string encoded = ArtifactCache::EncodeKey(canonical);
    for (const char c : encoded) {
      const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-' || c == '%';
      EXPECT_TRUE(safe) << canonical << " -> " << encoded;
    }
    const StatusOr<std::string> decoded = ArtifactCache::DecodeKey(encoded);
    ASSERT_TRUE(decoded.ok()) << encoded;
    EXPECT_EQ(decoded.value(), canonical);
  }
  EXPECT_FALSE(ArtifactCache::DecodeKey("bad%Z1").ok());
  EXPECT_FALSE(ArtifactCache::DecodeKey("truncated%4").ok());
  EXPECT_FALSE(ArtifactCache::DecodeKey("raw space").ok());
}

TEST(ArtifactCacheTest, KeysWithAwkwardCharactersRoundtripThroughDisk) {
  const std::string root = FreshRoot("awkward");
  ArtifactCache cache = MustOpen(root);
  const ArtifactKey key{"ca-GrQc (snap)", "k core #2"};
  const TreeArtifact artifact = MakeArtifact(15);
  ASSERT_TRUE(cache.Put(key, artifact).ok());
  // Reopen: the key must survive the encode -> filename -> decode trip.
  ArtifactCache reopened = MustOpen(root);
  ASSERT_TRUE(reopened.Contains(key));
  const StatusOr<TreeArtifact> loaded = reopened.Get(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(artifact));
}

TEST(ArtifactCacheTest, ScrubOnHealthyCacheIsClean) {
  ArtifactCache cache = MustOpen(FreshRoot("cleanscrub"));
  ASSERT_TRUE(cache.Put(ArtifactKey{"a", "f"}, MakeArtifact(3)).ok());
  ASSERT_TRUE(cache.Put(ArtifactKey{"b", "f"}, MakeArtifact(5)).ok());
  const StatusOr<ScrubReport> report = cache.Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().Clean());
  EXPECT_EQ(report.value().entries_checked, 2u);
  EXPECT_EQ(report.value().entries_ok, 2u);
}

}  // namespace
}  // namespace graphscape
