// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Bounded retry with exponential backoff and deterministic jitter, for
// the transient (kUnavailable) failure class only — deterministic errors
// (bad bytes, missing files, exhausted budgets) fail straight through;
// retrying them would just triple the latency of a certain failure.
//
// Everything time-shaped is injectable: the sleeper so tests run in
// microseconds while asserting the exact backoff schedule, the jitter
// seed so that schedule is reproducible. Backoff for attempt k (0-based
// count of failures so far) is
//
//   min(initial * multiplier^(k-1), max) * (1 - jitter + 2*jitter*u_k)
//
// with u_k drawn from a seeded xoshiro stream (common/rng.h), so two
// processes with different seeds spread out instead of thundering in
// lockstep, yet a test with a fixed seed sees the same schedule forever.

#ifndef GRAPHSCAPE_COMMON_RETRY_H_
#define GRAPHSCAPE_COMMON_RETRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/status.h"

namespace graphscape {

struct RetryOptions {
  /// Total tries, including the first. 1 disables retry entirely.
  uint32_t max_attempts = 3;
  double initial_backoff_seconds = 0.005;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.25;
  /// Fractional spread around the nominal backoff: 0.25 draws uniformly
  /// from [0.75x, 1.25x]. 0 disables jitter.
  double jitter_fraction = 0.25;
  uint64_t jitter_seed = 0x5ca1ab1eull;
  /// Injected sleeper; the default really sleeps. Tests install a
  /// recorder to assert the schedule without waiting for it.
  std::function<void(double seconds)> sleeper;
};

namespace retry_internal {

inline void DefaultSleep(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

inline const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const StatusOr<T>& result) {
  return result.status();
}

}  // namespace retry_internal

/// The backoff before retry number `attempt` (1-based: attempt 1 is the
/// first RE-try), jittered from `rng`. Exposed so tests pin the schedule.
inline double RetryBackoffSeconds(const RetryOptions& options,
                                  uint32_t attempt, Rng* rng) {
  double backoff = options.initial_backoff_seconds;
  for (uint32_t i = 1; i < attempt; ++i) {
    backoff *= options.backoff_multiplier;
    if (backoff >= options.max_backoff_seconds) break;
  }
  if (backoff > options.max_backoff_seconds) {
    backoff = options.max_backoff_seconds;
  }
  if (options.jitter_fraction > 0.0) {
    const double spread = options.jitter_fraction;
    backoff *= 1.0 - spread + 2.0 * spread * rng->UniformDouble();
  }
  return backoff;
}

/// Runs `fn` (a callable returning Status or StatusOr<T>) until it
/// succeeds, fails with a non-retryable code, or max_attempts is spent.
/// The last result is returned verbatim either way.
template <typename Fn>
auto RetryWithBackoff(const RetryOptions& options, Fn&& fn)
    -> decltype(fn()) {
  Rng rng(options.jitter_seed);
  const auto& sleep =
      options.sleeper ? options.sleeper : retry_internal::DefaultSleep;
  const uint32_t attempts = options.max_attempts == 0 ? 1 : options.max_attempts;
  auto result = fn();
  for (uint32_t attempt = 1; attempt < attempts; ++attempt) {
    const Status& status = retry_internal::StatusOf(result);
    if (status.ok() || !IsRetryable(status)) break;
    sleep(RetryBackoffSeconds(options, attempt, &rng));
    result = fn();
  }
  return result;
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMON_RETRY_H_
