// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "service/tile_cache.h"

#include "common/string_util.h"

namespace graphscape {
namespace service {

std::string TileKey::Canonical() const {
  return StrPrintf("%s|%s|%.17g|%.17g|%ux%u", dataset.c_str(), field.c_str(),
                   azimuth_deg, elevation_deg, static_cast<unsigned>(width),
                   static_cast<unsigned>(height));
}

std::shared_ptr<const std::string> TileLruCache::Get(
    const std::string& canonical_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(canonical_key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->second;
}

void TileLruCache::Put(const std::string& canonical_key,
                       std::shared_ptr<const std::string> tile_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t size = tile_bytes->size();
  if (size > max_bytes_) {
    ++stats_.rejected_oversize;
    return;
  }
  auto it = index_.find(canonical_key);
  if (it != index_.end()) {
    stats_.current_bytes -= it->second->second->size();
    stats_.current_bytes += size;
    it->second->second = std::move(tile_bytes);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    stats_.current_bytes += size;
    lru_.emplace_front(canonical_key, std::move(tile_bytes));
    index_[canonical_key] = lru_.begin();
    ++stats_.current_tiles;
  }
  ++stats_.insertions;
  EvictToFitLocked();
}

void TileLruCache::EvictToFitLocked() {
  while (stats_.current_bytes > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.current_bytes -= victim.second->size();
    --stats_.current_tiles;
    ++stats_.evictions;
    index_.erase(victim.first);
    lru_.pop_back();
  }
}

std::vector<std::string> TileLruCache::KeysMruToLru() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Entry& entry : lru_) keys.push_back(entry.first);
  return keys;
}

TileCacheStats TileLruCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace service
}  // namespace graphscape
