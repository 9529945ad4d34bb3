// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Byte-budgeted LRU for rendered terrain tiles, keyed by
// (dataset, field, camera, dimensions). Rendering a tile is the most
// expensive verb the query service answers (layout + raster + oblique
// render); the same few camera presets over the same few popular
// datasets dominate real traffic, so a small byte budget buys a large
// hit rate (the zipf-driven load generator demonstrates this —
// docs/OPERATIONS.md shows the readout). The service stores each tile
// as its complete, encoded OK response frame, so a hit is a pointer
// hand-off: no copy, no re-framing, no re-checksum.
//
// Semantics (pinned by tests/tile_cache_test.cc):
//
//   * Get bumps the entry to most-recently-used; Put inserts (or
//     replaces) at MRU and then evicts from the LRU end until the byte
//     ledger fits the budget again.
//   * The ledger counts the stored bytes only (for the service, the
//     frame: PPM payload + kResponseOverheadBytes), not map overhead —
//     the same accounting convention as ResourceBudget charges, so an
//     operator can reason in output sizes.
//   * A tile larger than the whole budget is NOT stored (and evicts
//     nothing): callers still get their render, the cache just refuses
//     to thrash itself for it.
//
// Thread safety: all public methods are internally synchronized by one
// mutex — the critical sections are map operations and a shared_ptr
// copy, so one lock beats sharding at this scale. Stored bytes are
// immutable: a Get hands out shared ownership, so an entry evicted
// while a worker is still writing it to a socket stays alive until that
// write is done. Rendering MUST happen outside the cache (Get-miss,
// render, Put), which means two racing requests for the same cold tile
// may both render it; both Puts are idempotent (same key, same
// deterministic bytes), so the only cost is the duplicated render —
// accepted, documented in docs/SERVICE.md.

#ifndef GRAPHSCAPE_SERVICE_TILE_CACHE_H_
#define GRAPHSCAPE_SERVICE_TILE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace graphscape {
namespace service {

/// Everything that determines a tile's bytes. Doubles are formatted
/// with %.17g in the canonical key, so distinct cameras never collide.
struct TileKey {
  std::string dataset;
  std::string field;
  double azimuth_deg = 0.0;
  double elevation_deg = 0.0;
  uint32_t width = 0;
  uint32_t height = 0;

  /// "dataset|field|azimuth|elevation|WxH". Distinct keys cannot render
  /// the same string: the numeric tail is fixed-arity, so a '|' smuggled
  /// into dataset or field only ever shifts fields into positions the
  /// numeric parser already rejected at the wire layer.
  std::string Canonical() const;
};

struct TileCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected_oversize = 0;  ///< Put refused: tile > whole budget
  uint64_t current_bytes = 0;
  uint64_t current_tiles = 0;
};

class TileLruCache {
 public:
  explicit TileLruCache(uint64_t max_bytes) : max_bytes_(max_bytes) {}

  TileLruCache(const TileLruCache&) = delete;
  TileLruCache& operator=(const TileLruCache&) = delete;

  /// The stored bytes, bumped to MRU; null on a miss.
  std::shared_ptr<const std::string> Get(const std::string& canonical_key);

  /// Insert-or-replace at MRU, then evict LRU entries until the ledger
  /// fits max_bytes. Oversize tiles are counted and dropped.
  void Put(const std::string& canonical_key,
           std::shared_ptr<const std::string> tile_bytes);

  /// Keys from most- to least-recently used (tests pin eviction order).
  std::vector<std::string> KeysMruToLru() const;

  TileCacheStats stats() const;
  uint64_t max_bytes() const { return max_bytes_; }

 private:
  // key, encoded tile bytes
  using Entry = std::pair<std::string, std::shared_ptr<const std::string>>;

  void EvictToFitLocked();

  const uint64_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = MRU
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  TileCacheStats stats_;
};

}  // namespace service
}  // namespace graphscape

#endif  // GRAPHSCAPE_SERVICE_TILE_CACHE_H_
