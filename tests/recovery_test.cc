// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The recovery suite: every crash/corruption seam of the TreeArtifact
// cache and the fs layer armed in turn, asserting the cache converges
// back to a clean state whose artifact bytes are BYTE-IDENTICAL to a
// clean-run serialization (the acceptance criterion CI also checks with
// cmp via cache_fsck). Seams come from common/failpoint.h; nothing here
// needs a real disk fault.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/retry.h"
#include "common/rng.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/artifact_cache.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_io.h"

namespace graphscape {
namespace {

using failpoint::ScopedFailpoint;
using failpoint::Spec;

TreeArtifact MakeArtifact(uint64_t seed) {
  Rng rng(seed);
  const Graph g = BarabasiAlbert(180, 3, &rng);
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

std::string FreshRoot(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/gs_recovery_" + name;
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

// Retry policy for tests: real backoff schedule, no real sleeping.
ArtifactCache::Options FastOptions() {
  ArtifactCache::Options options;
  options.retry.sleeper = [](double) {};
  return options;
}

ArtifactCache MustOpen(const std::string& root) {
  StatusOr<ArtifactCache> cache = ArtifactCache::Open(root, FastOptions());
  EXPECT_TRUE(cache.ok()) << cache.status().ToString();
  return std::move(cache).value();
}

std::string EntryPathFor(const std::string& root, const std::string& key) {
  return root + "/entries/" + ArtifactCache::EncodeKey(key) + ".gsta";
}

class RecoveryTest : public ::testing::Test {
 protected:
  ~RecoveryTest() override { failpoint::DisarmAll(); }
};

// A Put whose payload write tears on disk but whose rename and manifest
// commit still happen (the disk acknowledged a write it dropped): the
// next load must catch the mismatch, quarantine, and GetOrBuild must
// converge to byte-clean state.
TEST_F(RecoveryTest, TornEntryIsQuarantinedAndRebuiltByteIdentical) {
  const std::string root = FreshRoot("torn");
  ArtifactCache cache = MustOpen(root);
  const ArtifactKey key{"ds", "KC"};
  const TreeArtifact artifact = MakeArtifact(3);
  {
    ScopedFailpoint torn("cache/torn_entry", Spec::Once());
    ASSERT_TRUE(cache.Put(key, artifact).ok());
    EXPECT_EQ(torn.fire_count(), 1u);
  }
  const StatusOr<TreeArtifact> bad = cache.Get(key);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(cache.stats().corrupt_quarantined, 1u);

  const StatusOr<TreeArtifact> healed = cache.GetOrBuild(
      key, [&]() -> StatusOr<TreeArtifact> { return MakeArtifact(3); });
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  const StatusOr<std::string> on_disk =
      ReadFileBytes(EntryPathFor(root, "ds/KC"));
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk.value(), MustSerialize(artifact));  // byte-identical
  // The corrupt bytes were preserved for postmortem, not deleted.
  const StatusOr<std::vector<std::string>> quarantined =
      ListDir(root + "/quarantine");
  ASSERT_TRUE(quarantined.ok());
  EXPECT_EQ(quarantined.value().size(), 1u);
}

// A crash after the temp write but before the rename: the entry must not
// become visible, the stale temp must be swept at the next Open, and the
// previously stored version must still be served.
TEST_F(RecoveryTest, CrashAfterTempKeepsOldEntryAndSweepsTheTemp) {
  const std::string root = FreshRoot("crashtemp");
  const ArtifactKey key{"ds", "KC"};
  const TreeArtifact old_artifact = MakeArtifact(5);
  {
    ArtifactCache cache = MustOpen(root);
    ASSERT_TRUE(cache.Put(key, old_artifact).ok());
    ScopedFailpoint crash("cache/crash_after_temp", Spec::Once());
    const Status failed = cache.Put(key, MakeArtifact(7));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  }
  ASSERT_TRUE(PathExists(EntryPathFor(root, "ds/KC") + ".tmp"));

  ArtifactCache cache = MustOpen(root);
  EXPECT_EQ(cache.stats().temps_swept, 1u);
  EXPECT_FALSE(PathExists(EntryPathFor(root, "ds/KC") + ".tmp"));
  const StatusOr<TreeArtifact> loaded = cache.Get(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(old_artifact));
}

// A crash between the entry rename and the manifest commit: the entry is
// durable but unreferenced; the next Open must validate and adopt it.
TEST_F(RecoveryTest, StrayEntryFromManifestCrashIsAdopted) {
  const std::string root = FreshRoot("stray");
  const ArtifactKey key{"ds", "KC"};
  const TreeArtifact artifact = MakeArtifact(9);
  {
    ArtifactCache cache = MustOpen(root);
    ScopedFailpoint crash("cache/manifest_crash", Spec::Once());
    ASSERT_FALSE(cache.Put(key, artifact).ok());
  }
  ArtifactCache cache = MustOpen(root);
  EXPECT_EQ(cache.stats().strays_adopted, 1u);
  ASSERT_TRUE(cache.Contains(key));
  const StatusOr<TreeArtifact> loaded = cache.Get(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(artifact));
}

// Open trusts every manifest row whose file size agrees and reads only
// the MANIFEST; Scrub re-reads every entry. The failpoint is armed to
// fire never, so it only counts the reads.
TEST_F(RecoveryTest, OpenReadsOnlyTheManifestAndScrubReadsEveryEntry) {
  const std::string root = FreshRoot("fastpath");
  {
    ArtifactCache cache = MustOpen(root);
    for (const char* dataset : {"a", "b", "c"}) {
      ASSERT_TRUE(cache.Put(ArtifactKey{dataset, "f"}, MakeArtifact(37)).ok());
    }
  }
  ScopedFailpoint reads("fs/open_read", Spec::After(1ull << 40));
  ArtifactCache cache = MustOpen(root);
  EXPECT_EQ(cache.Keys().size(), 3u);
  EXPECT_EQ(reads.hit_count(), 1u);
  const StatusOr<ScrubReport> report = cache.Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().Clean());
  EXPECT_EQ(report.value().entries_ok, 3u);
  EXPECT_EQ(reads.hit_count(), 4u);
  EXPECT_EQ(reads.fire_count(), 0u);
}

// MANIFEST deleted (or trashed) out-of-band: rebuilt by scanning and
// validating the entry files, which are individually self-validating.
TEST_F(RecoveryTest, LostOrCorruptManifestIsRebuiltFromEntries) {
  const std::string root = FreshRoot("manifest");
  const TreeArtifact a = MakeArtifact(11), b = MakeArtifact(13);
  {
    ArtifactCache cache = MustOpen(root);
    ASSERT_TRUE(cache.Put(ArtifactKey{"a", "f"}, a).ok());
    ASSERT_TRUE(cache.Put(ArtifactKey{"b", "f"}, b).ok());
  }
  ASSERT_TRUE(RemoveFile(root + "/MANIFEST").ok());
  {
    ArtifactCache cache = MustOpen(root);
    EXPECT_TRUE(cache.stats().manifest_recovered);
    EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"a/f", "b/f"}));
    const StatusOr<TreeArtifact> loaded = cache.Get(ArtifactKey{"a", "f"});
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(a));
  }
  // Scribble over the manifest instead of deleting it: same recovery.
  ASSERT_TRUE(
      WriteFileBytes(root + "/MANIFEST", "GSCM 1\ngarbage\n", true).ok());
  ArtifactCache cache = MustOpen(root);
  EXPECT_TRUE(cache.stats().manifest_recovered);
  EXPECT_EQ(cache.Keys(), (std::vector<std::string>{"a/f", "b/f"}));
}

// A bit flip on the stored bytes (silent disk corruption): caught by the
// manifest checksum on load, quarantined, rebuilt byte-identical.
TEST_F(RecoveryTest, BitFlippedEntryIsCaughtQuarantinedAndRebuilt) {
  const std::string root = FreshRoot("bitflip");
  const ArtifactKey key{"ds", "KC"};
  const TreeArtifact artifact = MakeArtifact(15);
  ArtifactCache cache = MustOpen(root);
  ASSERT_TRUE(cache.Put(key, artifact).ok());

  const std::string path = EntryPathFor(root, "ds/KC");
  StatusOr<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = bytes.value();
  mutated[mutated.size() / 2] ^= 0x04;
  ASSERT_TRUE(WriteFileBytes(path, mutated, true).ok());

  const StatusOr<TreeArtifact> bad = cache.Get(key);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  const StatusOr<TreeArtifact> healed = cache.GetOrBuild(
      key, [&]() -> StatusOr<TreeArtifact> { return MakeArtifact(15); });
  ASSERT_TRUE(healed.ok());
  const StatusOr<std::string> on_disk = ReadFileBytes(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk.value(), MustSerialize(artifact));
}

// Same corruption injected at the READ seam instead of on disk (a read
// that "succeeds" with flipped bits, as a failing controller produces).
TEST_F(RecoveryTest, CorruptReadSeamTriggersQuarantineOnce) {
  const std::string root = FreshRoot("readseam");
  const ArtifactKey key{"ds", "KC"};
  ArtifactCache cache = MustOpen(root);
  ASSERT_TRUE(cache.Put(key, MakeArtifact(17)).ok());
  {
    ScopedFailpoint corrupt("cache/load_corrupt", Spec::Once());
    EXPECT_EQ(cache.Get(key).status().code(), StatusCode::kDataLoss);
  }
  // The GOOD bytes got quarantined with the flip applied in memory only;
  // either way the cache self-heals through GetOrBuild.
  const StatusOr<TreeArtifact> healed = cache.GetOrBuild(
      key, [&]() -> StatusOr<TreeArtifact> { return MakeArtifact(17); });
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(cache.Get(key).ok());
}

// Transient I/O faults at the fs seams must be absorbed by retry /
// the short-write loop, invisibly to the caller.
TEST_F(RecoveryTest, TransientFaultsAreAbsorbedByRetryAndWriteLoops) {
  const std::string root = FreshRoot("transient");
  const ArtifactKey key{"ds", "KC"};
  const TreeArtifact artifact = MakeArtifact(19);
  ArtifactCache cache = MustOpen(root);
  {
    // One short write(2) return: the loop lands every byte anyway.
    ScopedFailpoint short_write("fs/short_write", Spec::Once());
    ASSERT_TRUE(cache.Put(key, artifact).ok());
    EXPECT_EQ(short_write.fire_count(), 1u);
  }
  {
    // One failed open on the read path: absorbed by the retry policy.
    ScopedFailpoint flaky_open("fs/open_read", Spec::Once());
    const StatusOr<TreeArtifact> loaded = cache.Get(key);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(flaky_open.fire_count(), 1u);
    EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(artifact));
  }
  {
    // One transient manifest-write failure inside Put: retried through.
    ScopedFailpoint manifest("cache/manifest_write", Spec::Once());
    ASSERT_TRUE(cache.Put(ArtifactKey{"ds", "other"}, artifact).ok());
    EXPECT_EQ(manifest.fire_count(), 1u);
  }
}

// Transient faults that OUTLAST the retry budget surface as Unavailable
// and leave the previous entry intact.
TEST_F(RecoveryTest, PersistentFaultSurfacesAfterRetriesWithOldEntryIntact) {
  const std::string root = FreshRoot("persistent");
  const ArtifactKey key{"ds", "KC"};
  const TreeArtifact old_artifact = MakeArtifact(21);
  ArtifactCache cache = MustOpen(root);
  ASSERT_TRUE(cache.Put(key, old_artifact).ok());
  {
    ScopedFailpoint down("fs/open_write", Spec::Always());
    const Status failed = cache.Put(key, MakeArtifact(23));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
    EXPECT_EQ(down.fire_count(), kRetryMaxAttempts);
  }
  const StatusOr<TreeArtifact> loaded = cache.Get(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(MustSerialize(loaded.value()), MustSerialize(old_artifact));
}

// A rebuild that itself fails (an over-cap charge against the builder's
// ResourceBudget) propagates the builder's refusal.
TEST_F(RecoveryTest, RebuildOverBudgetPropagatesResourceExhausted) {
  const std::string root = FreshRoot("oom");
  const ArtifactKey key{"ds", "KC"};
  ArtifactCache cache = MustOpen(root);
  const StatusOr<TreeArtifact> result = cache.GetOrBuild(
      key, []() -> StatusOr<TreeArtifact> {
        Rng rng(25);
        const Graph g = BarabasiAlbert(180, 3, &rng);
        const auto kc = VertexScalarField::FromCounts("KC", CoreNumbers(g));
        // Charge the tree's parents and values before building it.
        ResourceBudget tiny(64);
        const Status charged =
            tiny.ChargeBytes(uint64_t{g.NumVertices()} * 12, "tree build");
        if (!charged.ok()) return charged;
        TreeArtifact artifact;
        artifact.tree = SuperTree(BuildVertexScalarTree(g, kc));
        return artifact;
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// Scrub finds and fixes everything at once: a temp, a corrupt entry, and
// a stray; the second pass is clean (cache_fsck's 1-then-0 protocol).
TEST_F(RecoveryTest, ScrubRepairsEverythingThenReportsClean) {
  const std::string root = FreshRoot("scrub");
  const TreeArtifact keep = MakeArtifact(27), stray = MakeArtifact(29);
  ArtifactCache cache = MustOpen(root);
  ASSERT_TRUE(cache.Put(ArtifactKey{"keep", "f"}, keep).ok());
  ASSERT_TRUE(cache.Put(ArtifactKey{"bad", "f"}, MakeArtifact(31)).ok());

  // Corrupt one entry, plant a stray temp and an unreferenced entry.
  const std::string bad_path = EntryPathFor(root, "bad/f");
  StatusOr<std::string> bytes = ReadFileBytes(bad_path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = bytes.value();
  mutated[10] ^= 0x80;
  ASSERT_TRUE(WriteFileBytes(bad_path, mutated, true).ok());
  ASSERT_TRUE(
      WriteFileBytes(root + "/entries/leftover.tmp", "junk", false).ok());
  ASSERT_TRUE(WriteFileBytes(EntryPathFor(root, "stray/f"),
                             MustSerialize(stray), true).ok());

  const StatusOr<ScrubReport> first = cache.Scrub();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().Clean());
  EXPECT_EQ(first.value().temps_removed, 1u);
  EXPECT_EQ(first.value().quarantined,
            (std::vector<std::string>{"bad/f"}));
  EXPECT_EQ(first.value().adopted, (std::vector<std::string>{"stray/f"}));

  const StatusOr<ScrubReport> second = cache.Scrub();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().Clean());
  // The survivors are intact and the stray is now a first-class entry.
  EXPECT_TRUE(cache.Get(ArtifactKey{"keep", "f"}).ok());
  const StatusOr<TreeArtifact> adopted = cache.Get(ArtifactKey{"stray", "f"});
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(MustSerialize(adopted.value()), MustSerialize(stray));
}

// SaveTreeArtifact's atomicity: a failed rename leaves the previous file
// byte-for-byte intact and no temp behind.
TEST_F(RecoveryTest, AtomicSaveLeavesOldFileIntactOnRenameFailure) {
  const std::string path =
      ::testing::TempDir() + "/gs_recovery_atomic.gsta";
  const TreeArtifact first = MakeArtifact(33);
  ASSERT_TRUE(SaveTreeArtifact(first, path).ok());
  {
    ScopedFailpoint rename_fails("fs/rename", Spec::Once());
    ASSERT_FALSE(SaveTreeArtifact(MakeArtifact(35), path).ok());
  }
  EXPECT_FALSE(PathExists(path + ".tmp"));
  const StatusOr<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), MustSerialize(first));
  (void)RemoveFile(path);
}

}  // namespace
}  // namespace graphscape
