// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/tree_core.h"

#include <cstring>
#include <iterator>
#include <numeric>
#include <utility>

namespace graphscape {
namespace tree_core {
namespace {

// Order-preserving image of a finite double in the sweep order: keys
// ASCEND as values descend. -0.0 folds into +0.0 first: the two compare
// equal, so the sweep order ties them and breaks the tie by id.
inline uint64_t DescendingKey(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  const uint64_t kSign = uint64_t{1} << 63;
  return ~((bits & kSign) != 0 ? ~bits : bits | kSign);
}

}  // namespace

void SortSweepOrder(const std::vector<double>& values,
                    std::vector<uint32_t>* order) {
  constexpr uint32_t kDigitBits = 11;
  constexpr uint64_t kDigitMask = (1u << kDigitBits) - 1;
  const uint32_t n = static_cast<uint32_t>(values.size());
  std::vector<uint64_t> keys(n);
  uint64_t differ = 0;
  for (uint32_t i = 0; i < n; ++i) {
    keys[i] = DescendingKey(values[i]);
    differ |= keys[i] ^ keys[0];
  }
  uint32_t shifts[(64 + kDigitBits - 1) / kDigitBits];
  uint32_t passes = 0;
  for (uint32_t shift = 0; shift < 64; shift += kDigitBits) {
    if ((differ >> shift) & kDigitMask) shifts[passes++] = shift;
  }

  order->resize(n);
  std::vector<uint32_t> other(passes > 1 ? n : 0);
  // Ping-pong so the last pass lands in *order. The first pass reads the
  // ascending ids straight off the loop counter.
  uint32_t* dst = passes % 2 == 1 ? order->data() : other.data();
  const uint32_t* src = nullptr;
  uint32_t bucket[kDigitMask + 1];
  for (uint32_t p = 0; p < passes; ++p) {
    const uint32_t shift = shifts[p];
    std::fill(std::begin(bucket), std::end(bucket), 0u);
    for (uint32_t i = 0; i < n; ++i) {
      ++bucket[(keys[i] >> shift) & kDigitMask];
    }
    uint32_t sum = 0;
    for (uint32_t& b : bucket) sum += std::exchange(b, sum);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t id = src == nullptr ? i : src[i];
      dst[bucket[(keys[id] >> shift) & kDigitMask]++] = id;
    }
    src = dst;
    dst = dst == order->data() ? other.data() : order->data();
  }
  if (passes == 0) std::iota(order->begin(), order->end(), 0u);
}

}  // namespace tree_core
}  // namespace graphscape
