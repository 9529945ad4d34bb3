// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Level-synchronous frontier peeling (the PKC scheme of Kabir & Madduri,
// run on one lane), shared by K-Core over vertices, K-Truss over edges and
// (3,4)-nucleus over triangles.
//
// For each level k = 0, 1, ... one pass over the compacted `live` list
// drops items already peeled (support < k), moves items with support == k
// to the frontier and keeps the rest. The frontier then drains in FIFO
// order: peel(item, demote) removes the item, and demote(x) lowers a
// surviving neighbour's support by one unless it is already at or below k,
// queueing it when it reaches k. On return support[i] is the level at
// which item i was peeled: its core, truss - 2 or nucleus number.
//
// Cost: an item stays in `live` for levels 0..(its peel level), and its
// peel level is at most its initial support, so the scans sum to at most
// NumItems + sum(support): O(n + 2m) for K-Core, O(m + 3 * triangles) for
// K-Truss, the order of the peel itself and never n * k_max. Memory is
// two item-sized arrays allocated once; nothing allocates per level.

#ifndef GRAPHSCAPE_COMMON_PEEL_BY_LEVEL_H_
#define GRAPHSCAPE_COMMON_PEEL_BY_LEVEL_H_

#include <cstdint>
#include <numeric>
#include <vector>

namespace graphscape {

template <typename Peel>
void PeelByLevel(std::vector<uint32_t>* support, Peel&& peel) {
  std::vector<uint32_t>& s = *support;
  std::vector<uint32_t> live(s.size());
  std::iota(live.begin(), live.end(), 0u);
  // Each item enters the frontier at most once per level, so n slots
  // suffice and `tail` never runs past them.
  std::vector<uint32_t> frontier(s.size());
  size_t num_live = live.size();
  for (uint32_t k = 0; num_live > 0; ++k) {
    // Branch-free split: every item is written to both lists and each
    // cursor advances only when the item belongs there.
    size_t kept = 0, tail = 0;
    for (size_t i = 0; i < num_live; ++i) {
      const uint32_t x = live[i];
      const uint32_t sx = s[x];
      frontier[tail] = x;
      tail += sx == k;
      live[kept] = x;
      kept += sx > k;
    }
    num_live = kept;
    auto demote = [&s, &frontier, &tail, k](uint32_t x) {
      if (s[x] > k && --s[x] == k) frontier[tail++] = x;
    };
    for (size_t head = 0; head < tail; ++head) peel(frontier[head], demote);
  }
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMON_PEEL_BY_LEVEL_H_
