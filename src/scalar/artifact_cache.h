// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Crash-safe on-disk cache of TreeArtifacts, keyed by dataset × field —
// the storage engine under the Graphscape query daemon
// (service/service.h) and the large-scale figure benches. Trees are the
// expensive part of every query, figure, and terrain render; this cache
// makes them build-once, survive-anything.
//
// On-disk layout under the cache root:
//
//   MANIFEST                    versioned text: one line per entry with
//                               its byte size + FNV-1a checksum, then a
//                               whole-file checksum line; replaced only
//                               atomically (temp + fsync + rename).
//   entries/<enc-key>.gsta      exactly SerializeTreeArtifact's bytes —
//                               byte-identical to a clean serialization,
//                               so CI can `cmp` recovered caches against
//                               fresh ones, and the daemon's TREE verb
//                               can serve them with zero translation.
//   quarantine/<enc-key>.N.gsta corrupt bytes, moved aside (never
//                               deleted) for postmortems.
//   *.tmp                       in-flight atomic writes; any that
//                               survive a crash are swept at Open() and
//                               Scrub().
//
// <enc-key> percent-encodes "dataset/field" so the mapping is bijective:
// a lost MANIFEST is rebuilt from the entry files alone.
//
// Failure semantics (the recovery state machine is drawn out in
// docs/ROBUSTNESS.md):
//
//   * Recovery is one reconcile pass, run by Open() and Scrub(): sweep
//     temps, drop rows whose files vanished, validate suspicious entry
//     files, adopt the valid ones, quarantine the corrupt ones, commit
//     the manifest once. Open() trusts a row whose file size matches;
//     Scrub() validates every entry.
//   * Writes are atomic: a crash at any seam leaves the previous entry
//     (or no entry) plus at worst a stale temp — never a torn entry
//     reachable from the manifest.
//   * Every load is checksum-verified against the manifest AND the
//     artifact's own internal checksum + structural validation; corrupt
//     entries are quarantined and surface as kDataLoss.
//   * kNotFound / kDataLoss are the rebuild triggers: GetOrBuild runs
//     the caller's builder (typically a budget-guarded tree build) and
//     re-Puts, converging the cache back to clean bytes.
//   * Transient I/O (kUnavailable, incl. injected faults) is retried
//     with backoff per Options::retry before any of the above.
//
// Thread-safety: NONE — the cache assumes one process, and every method
// (including Get, which mutates stats and may quarantine) requires
// external synchronization when shared across threads. The query daemon
// is the worked example: QueryService routes every cache touch through
// one load mutex, then shares the immutable loaded artifacts lock-free
// (docs/SERVICE.md §Concurrency). Multi-process coordination is out of
// scope; run one daemon per cache root.

#ifndef GRAPHSCAPE_SCALAR_ARTIFACT_CACHE_H_
#define GRAPHSCAPE_SCALAR_ARTIFACT_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "scalar/tree_io.h"

namespace graphscape {

inline constexpr uint32_t kArtifactCacheVersion = 1;

/// Canonical cache key. The string form is "dataset/field"
/// ("GrQc/KC"); any UTF-8 is legal in either half.
struct ArtifactKey {
  std::string dataset;
  std::string field;

  std::string Canonical() const { return dataset + "/" + field; }
};

/// Counters for observability and test assertions; cumulative since
/// Open.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t corrupt_quarantined = 0;
  uint64_t rebuilds = 0;
  uint64_t put_failures = 0;       ///< GetOrBuild served but couldn't store
  uint64_t temps_swept = 0;        ///< stale .tmp files removed at Open
  bool manifest_recovered = false; ///< MANIFEST was missing/corrupt at Open
  uint64_t strays_adopted = 0;     ///< valid entries adopted over a
                                   ///< missing or mismatched row
};

/// What a Scrub() pass found and fixed.
struct ScrubReport {
  uint64_t entries_checked = 0;
  uint64_t entries_ok = 0;
  uint64_t temps_removed = 0;
  uint64_t missing_dropped = 0;  ///< manifest rows whose files vanished
  std::vector<std::string> quarantined;  ///< canonical keys, corrupt bytes
  std::vector<std::string> adopted;      ///< valid strays added to MANIFEST

  /// True when the pass had nothing to fix.
  bool Clean() const {
    return quarantined.empty() && adopted.empty() && temps_removed == 0 &&
           missing_dropped == 0;
  }
};

class ArtifactCache {
 public:
  struct Options {
    /// Backoff policy for the transient (kUnavailable) failure class.
    RetryOptions retry;
  };

  /// An unopened cache (what StatusOr's error arm holds). Every usable
  /// instance comes from Open().
  ArtifactCache() = default;

  /// Opens (creating directories as needed) and RECOVERS: sweeps stale
  /// temps, rebuilds a missing/corrupt MANIFEST by scanning and
  /// validating the entry files, drops manifest rows whose files are
  /// gone, adopts valid stray entries a crash left un-manifested, and
  /// validates any listed entry whose size disagrees with its row.
  static StatusOr<ArtifactCache> Open(const std::string& root,
                                      const Options& options = {});

  /// Serialize + atomically store `artifact` under `key`, then commit
  /// the manifest. On any error the previous entry (if any) is intact.
  Status Put(const ArtifactKey& key, const TreeArtifact& artifact);

  /// Load + verify. kNotFound if never stored; kDataLoss (after
  /// quarantining the bytes) if the entry fails its checksums or
  /// structural validation; kUnavailable only if transient I/O outlasted
  /// the retry policy.
  StatusOr<TreeArtifact> Get(const ArtifactKey& key);

  /// The self-healing read path: Get, and on kNotFound/kDataLoss run
  /// `builder` and store its result. A build that fails (e.g. a
  /// ResourceBudget refusal) propagates; a store that fails after a good
  /// build is tolerated (the artifact is served, put_failures counts it).
  using Builder = std::function<StatusOr<TreeArtifact>()>;
  StatusOr<TreeArtifact> GetOrBuild(const ArtifactKey& key,
                                    const Builder& builder);

  bool Contains(const ArtifactKey& key) const;

  /// Canonical keys, sorted.
  std::vector<std::string> Keys() const;

  /// Full offline verification pass (the cache_fsck engine): Open's
  /// recovery with every entry re-checked byte-for-byte.
  StatusOr<ScrubReport> Scrub();

  const CacheStats& stats() const { return stats_; }
  const std::string& root() const { return root_; }

  /// Percent-encoding of canonical keys into entry file names (public
  /// for cache_fsck and tests).
  static std::string EncodeKey(const std::string& canonical);
  static StatusOr<std::string> DecodeKey(const std::string& encoded);

 private:
  struct ManifestEntry {
    uint64_t size = 0;
    uint64_t checksum = 0;  // FNV-1a over the entry file bytes
  };

  ArtifactCache(std::string root, Options options)
      : root_(std::move(root)), options_(std::move(options)) {}

  std::string EntryPath(const std::string& canonical) const;
  /// Loads MANIFEST into entries_; false (entries_ left empty) when it is
  /// absent, unreadable or corrupt.
  bool ParseManifest();
  /// The one recovery pass behind Open and Scrub: sweeps temps, drops
  /// rows whose files vanished, validates every entry file the manifest
  /// does not list, lists with another size, or (`verify_indexed`) lists
  /// at all, adopts the valid ones and quarantines the corrupt ones, then
  /// commits the manifest if anything changed or `rewrite` is set.
  StatusOr<ScrubReport> Reconcile(bool verify_indexed, bool rewrite);
  Status WriteManifest();
  /// Validates the file behind `canonical` completely; returns its
  /// manifest row.
  StatusOr<ManifestEntry> ValidateEntryFile(const std::string& canonical);
  /// Moves `canonical`'s entry file into quarantine/ and drops it from
  /// the manifest map (caller commits the manifest).
  void QuarantineEntry(const std::string& canonical);

  std::string root_;
  Options options_;
  std::map<std::string, ManifestEntry> entries_;  // canonical key -> row
  CacheStats stats_;
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_ARTIFACT_CACHE_H_
