// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Bounded retry with exponential backoff and deterministic jitter, for
// the transient (kUnavailable) failure class only — deterministic errors
// (bad bytes, missing files, exhausted budgets) fail straight through;
// retrying them would just triple the latency of a certain failure.
//
// The sleeper is injectable so tests run in microseconds while asserting
// the exact backoff schedule. Backoff before retry k (1-based) is
//
//   min(initial * multiplier^(k-1), max) * (1 - jitter + 2*jitter*u_k)
//
// with u_k drawn from a xoshiro stream (common/rng.h) under a fixed seed,
// so the schedule is reproducible forever.

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

/// Total tries, including the first.
inline constexpr uint32_t kRetryMaxAttempts = 3;
inline constexpr double kRetryInitialBackoffSeconds = 0.005;
inline constexpr double kRetryBackoffMultiplier = 2.0;
inline constexpr double kRetryMaxBackoffSeconds = 0.25;
/// Fractional spread around the nominal backoff: 0.25 draws uniformly
/// from [0.75x, 1.25x].
inline constexpr double kRetryJitterFraction = 0.25;
inline constexpr uint64_t kRetryJitterSeed = 0x5ca1ab1eull;

struct RetryOptions {
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
/// first RE-try), jittered by the uniform draw `u` in [0, 1) — u = 0.5
/// gives the nominal backoff. Exposed so tests pin the schedule.
inline double RetryBackoffSeconds(uint32_t attempt, double u) {
  double backoff = kRetryInitialBackoffSeconds;
  for (uint32_t i = 1; i < attempt && backoff < kRetryMaxBackoffSeconds; ++i)
    backoff *= kRetryBackoffMultiplier;
  if (backoff > kRetryMaxBackoffSeconds) backoff = kRetryMaxBackoffSeconds;
  return backoff *
         (1.0 - kRetryJitterFraction + 2.0 * kRetryJitterFraction * u);
}

/// Runs `fn` (a callable returning Status or StatusOr<T>) until it
/// succeeds, fails with a non-retryable code, or kRetryMaxAttempts is spent.
/// The last result is returned verbatim either way.
template <typename Fn>
auto RetryWithBackoff(const RetryOptions& options, Fn&& fn)
    -> decltype(fn()) {
  Rng rng(kRetryJitterSeed);
  const auto& sleep =
      options.sleeper ? options.sleeper : retry_internal::DefaultSleep;
  auto result = fn();
  for (uint32_t attempt = 1; attempt < kRetryMaxAttempts; ++attempt) {
    const Status& status = retry_internal::StatusOf(result);
    if (status.ok() || !IsRetryable(status)) break;
    sleep(RetryBackoffSeconds(attempt, rng.UniformDouble()));
    result = fn();
  }
  return result;
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMON_RETRY_H_
