// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// QueryService: the verb engine of the Graphscape daemon — everything
// the server does between "one request line arrived" and "one response
// frame to write back", with no sockets anywhere in sight. The split
// keeps the whole query surface testable in-process (service_test.cc
// drives Respond and HandleLine directly) and keeps server.cc down to
// transport.
//
// Data model: an ArtifactCache root (the same directory cache_fsck and
// the figure benches populate) is the corpus. Artifacts load lazily on
// first touch and stay resident for the process lifetime keyed by
// "dataset/field". Every reply is a pure function of that immutable
// state, so the per-artifact work is done once, at load: each loaded
// artifact keeps the deserialized SuperTree (for queries), its TREE
// reply as a finished OK frame (byte-identical to framing
// SerializeTreeArtifact, which the integration test cmp's), and
// CORRELATION's inputs — the field's average ranks and the sorted
// members of its top-10 peaks. Rendered tiles are cached as finished
// frames too, so TREE and warm TILE replies are shared buffers that
// the server writes without copying.
//
// Concurrency contract (docs/SERVICE.md §Concurrency):
//
//   * ArtifactCache is NOT thread-safe (scalar/artifact_cache.h), so
//     every cache touch happens under load_mu_.
//   * SuperTree::MemberIndex() is lazily built and unsynchronized, so it
//     is primed under load_mu_ at load time, together with the TREE
//     frame, the ranks and the top-peak members; after that the
//     artifact is immutable and shared across worker threads by
//     shared_ptr.
//   * The tile LRU is internally synchronized; renders run OUTSIDE all
//     locks (they are the slow part — serializing them would make the
//     thread pool pointless).
//   * The ServiceStats counters are relaxed atomics: each is a tally
//     that orders nothing, so STATS reads each one without a lock.
//
// Every handler returns StatusOr and every Status maps onto a wire code
// (service/wire.h), so a client can always tell "you asked wrong"
// (INVALID_ARGUMENT) from "no such artifact" (NOT_FOUND) from "the
// budget refused" (RESOURCE_EXHAUSTED) from "injected/transient fault"
// (UNAVAILABLE, the only retryable class).

#ifndef GRAPHSCAPE_SERVICE_SERVICE_H_
#define GRAPHSCAPE_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "scalar/artifact_cache.h"
#include "service/tile_cache.h"
#include "service/wire.h"

namespace graphscape {
namespace service {

/// Cumulative counters since Open, for STATS and test assertions.
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;           ///< requests answered with a non-OK frame
  uint64_t artifacts_loaded = 0; ///< lazy loads that succeeded
  uint64_t tiles_rendered = 0;   ///< TILE misses that rendered
};

class QueryService {
 public:
  struct Options {
    /// Byte budget of the rendered-tile LRU.
    uint64_t tile_cache_bytes = 64ull << 20;
    /// Per-request ResourceBudget cap for TILE renders; the guarded
    /// ladder degrades resolution before refusing.
    uint64_t request_budget_bytes = 256ull << 20;
    /// Per-request wall deadline, seconds (0 = none).
    double request_deadline_seconds = 10.0;
  };

  /// Opens (and recovers, per ArtifactCache::Open) the cache at
  /// `cache_root`. Fails only if the cache cannot be opened; an empty
  /// cache is legal (every keyed verb then answers NOT_FOUND).
  static StatusOr<std::unique_ptr<QueryService>> Open(
      const std::string& cache_root, const Options& options);
  static StatusOr<std::unique_ptr<QueryService>> Open(
      const std::string& cache_root) {
    return Open(cache_root, Options());
  }

  /// The whole request pipeline: parse one line, dispatch the verb,
  /// frame the answer. Always returns a complete, non-null frame —
  /// errors become error frames, never exceptions (the server writes
  /// the bytes verbatim). TREE and warm TILE replies are the resident
  /// frames themselves, shared rather than copied; the bytes are never
  /// mutated. Safe to call from many threads concurrently.
  std::shared_ptr<const std::string> Respond(const std::string& line);

  /// Respond's bytes, copied out.
  std::string HandleLine(const std::string& line) { return *Respond(line); }

  ServiceStats stats() const;
  TileCacheStats tile_stats() const { return tiles_.stats(); }
  const Options& options() const { return options_; }

 private:
  using Frame = std::shared_ptr<const std::string>;

  /// One resident artifact and every reply input derived from it at load.
  struct LoadedArtifact {
    TreeArtifact artifact;
    /// The TREE reply: the OK frame around SerializeTreeArtifact.
    Frame tree_frame;
    /// AverageRanks(artifact.field_values): CORRELATION's Spearman input.
    std::vector<double> ranks;
    /// TopPeakMembers(artifact.tree, kCorrelationPeaks).
    std::vector<uint32_t> top_peak_members;
  };

  /// Cumulative counters behind ServiceStats.
  struct Counters {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> artifacts_loaded{0};
    std::atomic<uint64_t> tiles_rendered{0};
  };

  QueryService(ArtifactCache cache, const Options& options)
      : options_(options),
        cache_(std::move(cache)),
        tiles_(options.tile_cache_bytes) {}

  /// Dispatch after a successful parse; the OK frame.
  StatusOr<Frame> Dispatch(const Request& request);

  StatusOr<std::shared_ptr<const LoadedArtifact>> GetArtifact(
      const std::string& dataset, const std::string& field);

  // TREE and TILE answer with whole frames; the other verbs build a
  // payload that Dispatch frames.
  StatusOr<Frame> HandleTree(const Request& request);
  StatusOr<std::string> HandlePeaks(const Request& request);
  StatusOr<std::string> HandleTopPeaks(const Request& request);
  StatusOr<std::string> HandleMembers(const Request& request);
  StatusOr<std::string> HandleCorrelation(const Request& request);
  StatusOr<Frame> HandleTile(const Request& request);
  StatusOr<std::string> HandleStats();

  const Options options_;

  /// Guards cache_ (not thread-safe) and loaded_ (the resident map);
  /// never held across a render.
  mutable std::mutex load_mu_;
  ArtifactCache cache_;
  std::unordered_map<std::string, std::shared_ptr<const LoadedArtifact>>
      loaded_;

  /// Encoded TILE frames.
  TileLruCache tiles_;

  Counters counters_;
};

}  // namespace service
}  // namespace graphscape

#endif  // GRAPHSCAPE_SERVICE_SERVICE_H_
