// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// ResourceBudget: a byte cap plus a deadline, threaded by pointer
// through the guarded render so paper-scale renders degrade
// deliberately instead of dying in the allocator.
//
// Semantics:
//   * ChargeBytes(n) reserves n bytes against the cap BEFORE the caller
//     allocates them; over-cap charges refuse with ResourceExhausted and
//     leave the ledger unchanged. ReleaseBytes returns a reservation
//     when the memory is freed (the degrading render ladder releases a
//     failed attempt before trying a cheaper one).
//   * CheckDeadline() refuses with DeadlineExceeded once the injected
//     clock passes max_seconds. Callers poll it between phases, not in
//     hot loops.
//   * A default-constructed budget is unlimited and never refuses —
//     guarded entry points accept nullptr to mean the same, so the
//     unguarded fast paths stay zero-overhead.
//
// The clock is injectable for tests; the failpoint seams budget/charge
// and budget/deadline let the recovery suite inject an allocation-cap
// hit or an expired deadline at any guarded call site without actually
// exhausting anything (docs/ROBUSTNESS.md).

#ifndef GRAPHSCAPE_COMMON_BUDGET_H_
#define GRAPHSCAPE_COMMON_BUDGET_H_

#include <cstdint>
#include <functional>

#include "common/failpoint.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace graphscape {

class ResourceBudget {
 public:
  static constexpr uint64_t kUnlimitedBytes = ~0ull;
  static constexpr double kNoDeadline = 0.0;

  /// Unlimited: never refuses.
  ResourceBudget() = default;

  /// `max_bytes` caps cumulative outstanding charges; `max_seconds` (from
  /// construction, 0 = none) bounds wall time. `clock` returns seconds
  /// elapsed since an arbitrary epoch and defaults to the wall clock.
  explicit ResourceBudget(uint64_t max_bytes,
                          double max_seconds = kNoDeadline,
                          std::function<double()> clock = {})
      : max_bytes_(max_bytes),
        max_seconds_(max_seconds),
        clock_(std::move(clock)) {
    start_seconds_ = Now();
  }

  /// Reserve `bytes` for `what`. ResourceExhausted if it would exceed
  /// the cap (ledger unchanged), so callers can degrade and re-charge.
  Status ChargeBytes(uint64_t bytes, const char* what) {
    if (failpoint::Fire("budget/charge")) {
      return Status::ResourceExhausted(
          StrPrintf("injected allocation-cap hit charging %s", what));
    }
    if (bytes > max_bytes_ - charged_bytes_) {
      return Status::ResourceExhausted(StrPrintf(
          "%s needs %llu bytes; %llu of %llu already charged", what,
          static_cast<unsigned long long>(bytes),
          static_cast<unsigned long long>(charged_bytes_),
          static_cast<unsigned long long>(max_bytes_)));
    }
    charged_bytes_ += bytes;
    if (charged_bytes_ > peak_bytes_) peak_bytes_ = charged_bytes_;
    return Status::Ok();
  }

  /// Return a reservation (clamped, so callers can't underflow).
  void ReleaseBytes(uint64_t bytes) {
    charged_bytes_ -= bytes < charged_bytes_ ? bytes : charged_bytes_;
  }

  /// DeadlineExceeded once elapsed time passes max_seconds.
  Status CheckDeadline(const char* what) {
    if (failpoint::Fire("budget/deadline")) {
      return Status::DeadlineExceeded(
          StrPrintf("injected deadline expiry at %s", what));
    }
    if (max_seconds_ <= kNoDeadline) return Status::Ok();
    const double elapsed = Now() - start_seconds_;
    if (elapsed > max_seconds_) {
      return Status::DeadlineExceeded(
          StrPrintf("%s at %.3fs, deadline %.3fs", what, elapsed,
                    max_seconds_));
    }
    return Status::Ok();
  }

  uint64_t charged_bytes() const { return charged_bytes_; }
  uint64_t peak_bytes() const { return peak_bytes_; }
  uint64_t max_bytes() const { return max_bytes_; }
  uint64_t remaining_bytes() const { return max_bytes_ - charged_bytes_; }

 private:
  double Now() const { return clock_ ? clock_() : wall_.Seconds(); }

  uint64_t max_bytes_ = kUnlimitedBytes;
  double max_seconds_ = kNoDeadline;
  std::function<double()> clock_;
  WallTimer wall_;
  double start_seconds_ = 0.0;
  uint64_t charged_bytes_ = 0;
  uint64_t peak_bytes_ = 0;
};

/// The guarded entry points take a ResourceBudget* where nullptr means
/// "unlimited"; this helper keeps their charge sites one-liners.
inline Status ChargeBudget(ResourceBudget* budget, uint64_t bytes,
                           const char* what) {
  return budget == nullptr ? Status::Ok()
                           : budget->ChargeBytes(bytes, what);
}

inline Status CheckBudgetDeadline(ResourceBudget* budget, const char* what) {
  return budget == nullptr ? Status::Ok() : budget->CheckDeadline(what);
}

inline void ReleaseBudget(ResourceBudget* budget, uint64_t bytes) {
  if (budget != nullptr) budget->ReleaseBytes(bytes);
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMON_BUDGET_H_
