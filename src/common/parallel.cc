// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace graphscape {
namespace {

uint32_t ParseThreadsEnv() {
  const char* env = std::getenv("GRAPHSCAPE_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || parsed == 0) return 0;
  return parsed > kMaxThreads ? kMaxThreads
                              : static_cast<uint32_t>(parsed);
}

// One in-flight parallel region. Lives on the calling thread's stack;
// RunRegion does not return until `active_workers` drops back to zero, so
// workers never dangle into a dead frame.
struct Region {
  void (*fn)(void* ctx, uint64_t block, uint32_t lane) = nullptr;
  void* ctx = nullptr;
  uint64_t num_blocks = 0;
  uint32_t max_lanes = 0;
  std::atomic<uint64_t> next_block{0};
  std::atomic<uint32_t> next_lane{1};  // lane 0 is the calling thread
  uint64_t done_blocks = 0;            // guarded by the pool mutex
  uint32_t active_workers = 0;         // guarded by the pool mutex
};

// Lazy global pool. Workers sleep on a condition variable between
// regions; publishing a region bumps `epoch_` so a worker that raced a
// previous wakeup cannot re-enter a finished region. The pool is a
// function-local static (destroyed at exit, joining its workers) so the
// leak-sanitizer legs stay clean.
class ThreadPool {
 public:
  ~ThreadPool() { Shutdown(); }

  static ThreadPool& Global() {
    static ThreadPool pool;
    return pool;
  }

  void Run(uint32_t num_threads, uint64_t num_blocks,
           void (*fn)(void* ctx, uint64_t block, uint32_t lane), void* ctx) {
    if (num_blocks == 0) return;
    if (num_threads > kMaxThreads) num_threads = kMaxThreads;
    if (static_cast<uint64_t>(num_threads) > num_blocks)
      num_threads = static_cast<uint32_t>(num_blocks);
    if (num_threads <= 1) {
      for (uint64_t b = 0; b < num_blocks; ++b) fn(ctx, b, 0);
      return;
    }
    // Regions are serialized: nested/concurrent callers run one at a time.
    std::lock_guard<std::mutex> run_lock(run_mu_);

    Region region;
    region.fn = fn;
    region.ctx = ctx;
    region.num_blocks = num_blocks;
    region.max_lanes = num_threads;
    {
      std::unique_lock<std::mutex> lock(mu_);
      EnsureWorkersLocked(num_threads - 1);
      region_ = &region;
      ++epoch_;
    }
    work_cv_.notify_all();
    WorkOn(&region, /*lane=*/0);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&region] {
        return region.done_blocks == region.num_blocks &&
               region.active_workers == 0;
      });
      region_ = nullptr;
    }
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = false;
    }
  }

 private:
  void EnsureWorkersLocked(uint32_t want) {
    while (workers_.size() < want)
      workers_.emplace_back([this] { WorkerLoop(); });
  }

  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    for (;;) {
      Region* region = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this, seen_epoch] {
          return shutdown_ || (epoch_ != seen_epoch && region_ != nullptr);
        });
        if (shutdown_) return;
        seen_epoch = epoch_;
        region = region_;
        ++region->active_workers;
      }
      const uint32_t lane =
          region->next_lane.fetch_add(1, std::memory_order_relaxed);
      if (lane < region->max_lanes) WorkOn(region, lane);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --region->active_workers;
      }
      done_cv_.notify_one();
    }
  }

  // Claim blocks until the region is drained, then account for them in
  // one batch so the completion wait sees a consistent count.
  void WorkOn(Region* region, uint32_t lane) {
    uint64_t claimed = 0;
    for (;;) {
      const uint64_t block =
          region->next_block.fetch_add(1, std::memory_order_relaxed);
      if (block >= region->num_blocks) break;
      region->fn(region->ctx, block, lane);
      ++claimed;
    }
    if (claimed > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      region->done_blocks += claimed;
    }
  }

  std::mutex run_mu_;  // serializes whole regions
  std::mutex mu_;      // guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  Region* region_ = nullptr;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;
};

}  // namespace

uint32_t DefaultThreads() {
  static const uint32_t cached = [] {
    const uint32_t from_env = ParseThreadsEnv();
    if (from_env > 0) return from_env;
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) return 1u;
    return hw > kMaxThreads ? kMaxThreads : static_cast<uint32_t>(hw);
  }();
  return cached;
}

uint32_t EffectiveLanes(const ParallelOptions& options, uint64_t count) {
  if (count == 0) return 0;
  uint32_t lanes =
      options.num_threads == 0 ? DefaultThreads() : options.num_threads;
  if (lanes > kMaxThreads) lanes = kMaxThreads;
  const uint64_t grain = internal::ResolveGrain(options.grain, 1024);
  const uint64_t num_blocks = (count + grain - 1) / grain;
  if (static_cast<uint64_t>(lanes) > num_blocks)
    lanes = static_cast<uint32_t>(num_blocks);
  return lanes;
}

namespace internal {

void RunRegion(uint32_t num_threads, uint64_t num_blocks,
               void (*fn)(void* ctx, uint64_t block, uint32_t lane),
               void* ctx) {
  ThreadPool::Global().Run(num_threads, num_blocks, fn, ctx);
}

}  // namespace internal
}  // namespace graphscape
