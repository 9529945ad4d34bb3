// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// TileLruCache semantics, pinned exactly as service/tile_cache.h
// promises them: MRU/LRU ordering (Get bumps, Put inserts at front),
// byte-ledger accounting through insert/replace/evict, the
// oversize-rejection rule, and key canonicalization.

#include "service/tile_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace graphscape {
namespace service {
namespace {

std::shared_ptr<const std::string> Tile(size_t bytes, char fill) {
  return std::make_shared<const std::string>(bytes, fill);
}

TEST(TileKeyTest, CanonicalIsDeterministicAndCollisionResistant) {
  TileKey key;
  key.dataset = "ba-demo";
  key.field = "KC";
  key.azimuth_deg = 225.0;
  key.elevation_deg = 42.0;
  key.width = 128;
  key.height = 96;
  EXPECT_EQ(key.Canonical(), key.Canonical());

  TileKey other = key;
  other.azimuth_deg = 225.5;
  EXPECT_NE(key.Canonical(), other.Canonical());
  other = key;
  other.width = 129;
  EXPECT_NE(key.Canonical(), other.Canonical());
  other = key;
  other.field = "DEG";
  EXPECT_NE(key.Canonical(), other.Canonical());

  // Doubles that differ below float precision must still key apart
  // (%.17g round-trips every distinct double).
  other = key;
  other.elevation_deg = 42.0 + 1e-13;
  EXPECT_NE(key.Canonical(), other.Canonical());
}

TEST(TileLruCacheTest, GetMissThenHitAndByteLedger) {
  TileLruCache cache(1024);
  EXPECT_EQ(cache.Get("a"), nullptr);
  const std::shared_ptr<const std::string> stored = Tile(100, 'a');
  cache.Put("a", stored);
  const std::shared_ptr<const std::string> out = cache.Get("a");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, *Tile(100, 'a'));
  // A hit hands out the stored buffer itself, not a copy.
  EXPECT_EQ(out.get(), stored.get());

  const TileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.current_bytes, 100u);
  EXPECT_EQ(stats.current_tiles, 1u);
}

TEST(TileLruCacheTest, PutEvictsFromLruEndUntilBudgetFits) {
  TileLruCache cache(300);
  cache.Put("a", Tile(100, 'a'));
  cache.Put("b", Tile(100, 'b'));
  cache.Put("c", Tile(100, 'c'));
  EXPECT_EQ(cache.KeysMruToLru(),
            (std::vector<std::string>{"c", "b", "a"}));

  // A fourth tile exceeds the budget by exactly one entry: "a" (the LRU
  // tail) goes, nothing else.
  cache.Put("d", Tile(100, 'd'));
  EXPECT_EQ(cache.KeysMruToLru(),
            (std::vector<std::string>{"d", "c", "b"}));
  EXPECT_EQ(cache.Get("a"), nullptr);

  const TileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.current_bytes, 300u);
  EXPECT_EQ(stats.current_tiles, 3u);
}

TEST(TileLruCacheTest, OneLargePutCanEvictSeveralSmallEntries) {
  TileLruCache cache(300);
  cache.Put("a", Tile(100, 'a'));
  cache.Put("b", Tile(100, 'b'));
  cache.Put("c", Tile(100, 'c'));
  cache.Put("big", Tile(150, 'x'));
  // 150 fits only after both "a" and "b" leave (oldest first).
  EXPECT_EQ(cache.KeysMruToLru(),
            (std::vector<std::string>{"big", "c"}));
  const TileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.current_bytes, 250u);
}

TEST(TileLruCacheTest, GetBumpsToMruAndChangesEvictionVictim) {
  TileLruCache cache(300);
  cache.Put("a", Tile(100, 'a'));
  cache.Put("b", Tile(100, 'b'));
  cache.Put("c", Tile(100, 'c'));
  ASSERT_NE(cache.Get("a"), nullptr);  // "a" is now MRU; "b" is the tail
  EXPECT_EQ(cache.KeysMruToLru(),
            (std::vector<std::string>{"a", "c", "b"}));
  cache.Put("d", Tile(100, 'd'));
  EXPECT_EQ(cache.KeysMruToLru(),
            (std::vector<std::string>{"d", "a", "c"}));
  EXPECT_EQ(cache.Get("b"), nullptr);
}

TEST(TileLruCacheTest, ReplacingAKeyUpdatesBytesNotTileCount) {
  TileLruCache cache(1024);
  cache.Put("a", Tile(100, 'a'));
  cache.Put("a", Tile(250, 'A'));
  const std::shared_ptr<const std::string> out = cache.Get("a");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, *Tile(250, 'A'));
  const TileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.current_bytes, 250u);
  EXPECT_EQ(stats.current_tiles, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(TileLruCacheTest, OversizeTileIsRejectedAndEvictsNothing) {
  TileLruCache cache(200);
  cache.Put("a", Tile(100, 'a'));
  cache.Put("huge", Tile(201, 'h'));
  EXPECT_EQ(cache.Get("huge"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);  // the resident entry survived
  const TileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected_oversize, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.current_bytes, 100u);
  EXPECT_EQ(stats.current_tiles, 1u);
}

TEST(TileLruCacheTest, ExactBudgetFitIsNotOversize) {
  TileLruCache cache(200);
  cache.Put("exact", Tile(200, 'e'));
  EXPECT_NE(cache.Get("exact"), nullptr);
  EXPECT_EQ(cache.stats().rejected_oversize, 0u);
}

// The service renders outside the cache lock, so concurrent Get/Put on
// overlapping keys is the normal case, not an edge case. This is a
// smoke test for TSan (the CI matrix runs tier1 under -fsanitize=thread).
// A hit may outlive its entry's eviction or replacement, so each reader
// also checks that the buffer it holds is still one whole tile.
TEST(TileLruCacheTest, ConcurrentMixedTrafficStaysConsistent) {
  TileLruCache cache(10 * 1024);
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &torn, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((t * 7 + i) % 16);
        const std::shared_ptr<const std::string> hit = cache.Get(key);
        if (hit == nullptr) {
          cache.Put(key, Tile(512, static_cast<char>('a' + (i % 26))));
        } else if (hit->size() != 512 ||
                   hit->find_first_not_of((*hit)[0]) != std::string::npos) {
          ++torn;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(torn.load(), 0u);
  const TileCacheStats stats = cache.stats();
  EXPECT_LE(stats.current_bytes, 10u * 1024u);
  EXPECT_EQ(stats.current_tiles, cache.KeysMruToLru().size());
  EXPECT_EQ(stats.hits + stats.misses, 4u * 500u);
}

}  // namespace
}  // namespace service
}  // namespace graphscape
