// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Retry backoff (exact schedule under an injected sleeper, deterministic
// jitter, retry-only-the-retryable), ResourceBudget accounting (charge /
// release / refusal / injected clock deadline), and the degrading render
// ladder rung by rung.

#include "common/budget.h"
#include "common/retry.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/scalar_tree.h"
#include "terrain/guarded_render.h"

namespace graphscape {
namespace {

RetryOptions FastRetry(std::vector<double>* slept) {
  RetryOptions options;
  options.sleeper = [slept](double seconds) {
    if (slept != nullptr) slept->push_back(seconds);
  };
  return options;
}

TEST(RetryTest, BackoffDoublesUpToTheCap) {
  // A draw of 0.5 is the jitter-free midpoint: factor exactly 1.
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(1, 0.5), 0.005);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(2, 0.5), 0.010);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(3, 0.5), 0.020);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(6, 0.5), 0.160);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(7, 0.5), 0.25);  // capped
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(12, 0.5), 0.25);
}

TEST(RetryTest, JitterIsSeededDeterministicAndBounded) {
  Rng a(7), b(7), c(8);
  const double first = RetryBackoffSeconds(1, a.UniformDouble());
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(1, b.UniformDouble()), first);
  EXPECT_NE(RetryBackoffSeconds(1, c.UniformDouble()), first);
  EXPECT_GE(first, 0.005 * 0.75);
  EXPECT_LT(first, 0.005 * 1.25);
  EXPECT_DOUBLE_EQ(RetryBackoffSeconds(1, 0.0), 0.005 * 0.75);
}

TEST(RetryTest, RetriesTransientFailuresThenSucceeds) {
  std::vector<double> slept;
  int calls = 0;
  const Status status = RetryWithBackoff(FastRetry(&slept), [&]() {
    return ++calls < 3 ? Status::Unavailable("flaky") : Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(slept.size(), 2u);  // one backoff per failed attempt
}

TEST(RetryTest, DoesNotRetryDeterministicFailures) {
  for (const Status& terminal :
       {Status::InvalidArgument("bad"), Status::NotFound("gone"),
        Status::DataLoss("torn"), Status::ResourceExhausted("cap")}) {
    int calls = 0;
    const Status status = RetryWithBackoff(FastRetry(nullptr), [&]() {
      ++calls;
      return terminal;
    });
    EXPECT_EQ(status.code(), terminal.code());
    EXPECT_EQ(calls, 1) << terminal.ToString();
  }
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  int calls = 0;
  const Status status = RetryWithBackoff(FastRetry(nullptr), [&]() {
    ++calls;
    return Status::Unavailable("always down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, static_cast<int>(kRetryMaxAttempts));
}

TEST(RetryTest, StatusOrFlavorRetriesAndReturnsTheValue) {
  int calls = 0;
  const StatusOr<int> result =
      RetryWithBackoff(FastRetry(nullptr), [&]() -> StatusOr<int> {
        if (++calls < 2) return Status::Unavailable("flaky");
        return 41 + 1;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(calls, 2);
}

TEST(BudgetTest, ChargesReleasesAndTracksPeak) {
  ResourceBudget budget(1000);
  EXPECT_TRUE(budget.ChargeBytes(600, "a").ok());
  EXPECT_TRUE(budget.ChargeBytes(400, "b").ok());
  EXPECT_EQ(budget.charged_bytes(), 1000u);
  EXPECT_EQ(budget.remaining_bytes(), 0u);
  budget.ReleaseBytes(500);
  EXPECT_EQ(budget.charged_bytes(), 500u);
  EXPECT_EQ(budget.peak_bytes(), 1000u);
  budget.ReleaseBytes(9999);  // clamped, never underflows
  EXPECT_EQ(budget.charged_bytes(), 0u);
}

TEST(BudgetTest, OverCapChargeRefusesAndLeavesLedgerUnchanged) {
  ResourceBudget budget(100);
  ASSERT_TRUE(budget.ChargeBytes(80, "base").ok());
  const Status refused = budget.ChargeBytes(21, "overflow");
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.charged_bytes(), 80u);  // the refusal charged nothing
  EXPECT_TRUE(budget.ChargeBytes(20, "fits").ok());
}

TEST(BudgetTest, DefaultBudgetAndNullptrNeverRefuse) {
  ResourceBudget unlimited;
  EXPECT_TRUE(unlimited.ChargeBytes(~0ull >> 1, "huge").ok());
  EXPECT_TRUE(unlimited.CheckDeadline("never").ok());
  EXPECT_TRUE(ChargeBudget(nullptr, ~0ull >> 1, "huge").ok());
  EXPECT_TRUE(CheckBudgetDeadline(nullptr, "never").ok());
  ReleaseBudget(nullptr, 1);  // must not crash
}

TEST(BudgetTest, DeadlineExpiresOnTheInjectedClock) {
  double now = 0.0;
  ResourceBudget budget(ResourceBudget::kUnlimitedBytes, /*max_seconds=*/2.0,
                        [&now]() { return now; });
  EXPECT_TRUE(budget.CheckDeadline("early").ok());
  now = 1.9;
  EXPECT_TRUE(budget.CheckDeadline("almost").ok());
  now = 2.1;
  const Status expired = budget.CheckDeadline("late");
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetTest, FailpointSeamsInjectCapHitAndExpiry) {
  ResourceBudget budget(ResourceBudget::kUnlimitedBytes);
  {
    failpoint::ScopedFailpoint charge("budget/charge",
                                      failpoint::Spec::Once());
    EXPECT_EQ(budget.ChargeBytes(1, "x").code(),
              StatusCode::kResourceExhausted);
    EXPECT_TRUE(budget.ChargeBytes(1, "x").ok());
  }
  {
    failpoint::ScopedFailpoint deadline("budget/deadline",
                                        failpoint::Spec::Once());
    EXPECT_EQ(budget.CheckDeadline("x").code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(budget.CheckDeadline("x").ok());
  }
}

// ---- The degrading render ladder ----

// The super tree of a BA-300 graph's K-Core field.
SuperTree TestTree() {
  Rng rng(17);
  const Graph g = BarabasiAlbert(300, 3, &rng);
  return SuperTree(BuildVertexScalarTree(
      g, VertexScalarField::FromCounts("KC", CoreNumbers(g))));
}

GuardedRenderOptions SmallRender() {
  GuardedRenderOptions options;
  options.raster_width = 256;
  options.raster_height = 256;
  options.image_width = 320;
  options.image_height = 240;
  options.min_raster_dim = 32;
  return options;
}

TEST(GuardedRenderTest, UnlimitedBudgetRendersFullDetail) {
  const SuperTree tree = TestTree();
  const auto result = RenderTreeTerrainGuarded(tree, nullptr, SmallRender());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().halvings, 0u);
  EXPECT_EQ(result.value().raster_width, 256u);
  EXPECT_EQ(result.value().image.width, 320u);
}

TEST(GuardedRenderTest, GenerousBudgetRetainsOnlyTheImage) {
  const SuperTree tree = TestTree();
  ResourceBudget budget(1ull << 30);
  const auto result = RenderTreeTerrainGuarded(tree, &budget, SmallRender());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Everything except the returned image went back to the budget.
  EXPECT_EQ(budget.charged_bytes(), result.value().retained_bytes);
  EXPECT_EQ(result.value().retained_bytes, 320ull * 240 * 3);
}

TEST(GuardedRenderTest, TightBudgetDegradesToHalvedRender) {
  const SuperTree tree = TestTree();
  // Capped at exactly the halved-resolution rung: the full rung's pixel
  // terms alone exceed it, and the halved rung fits.
  ResourceBudget budget(
      TerrainRenderWorkingBytes(tree.NumNodes(), 128, 128, 160, 120));
  const auto result = RenderTreeTerrainGuarded(tree, &budget, SmallRender());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().halvings, 1u);
  EXPECT_EQ(result.value().raster_width, 128u);
  EXPECT_EQ(result.value().image.width, 160u);
  EXPECT_EQ(budget.charged_bytes(), 160ull * 120 * 3);
}

TEST(GuardedRenderTest, ExhaustsTheLadderWhenNothingFits) {
  const SuperTree tree = TestTree();
  // A zero floor halves down to a 1-pixel raster, then stops too.
  for (const uint32_t min_raster_dim : {32u, 0u}) {
    GuardedRenderOptions options = SmallRender();
    options.min_raster_dim = min_raster_dim;
    ResourceBudget budget(64);  // nowhere near any render rung
    const auto result = RenderTreeTerrainGuarded(tree, &budget, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    // Every refused rung left the ledger clean.
    EXPECT_EQ(budget.charged_bytes(), 0u);
  }
}

TEST(GuardedRenderTest, ExpiredDeadlineFailsFastBetweenRungs) {
  const SuperTree tree = TestTree();
  // Injected clock: 0.6s per Now() call, and a cap that refuses the full
  // rung. Construction reads the clock once; the first rung's check sees
  // 0.6s elapsed and passes, the second's sees 1.2s > 1.0s and refuses
  // before the halved rung (which would fit) renders.
  const uint64_t cap =
      TerrainRenderWorkingBytes(tree.NumNodes(), 128, 128, 160, 120);
  double now = 0.0;
  ResourceBudget budget(cap, 1.0, [&now]() {
    now += 0.6;
    return now;
  });
  const auto result = RenderTreeTerrainGuarded(tree, &budget, SmallRender());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace graphscape
