// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared-memory parallel-for over a small fixed-size thread pool — the
// construction engine behind the parallel metrics substrate, the
// spring-layout repulsion pass, and the terrain raster's row bands. The
// full threading model (pool lifecycle, grain sizes, the determinism
// contract) is documented in docs/PARALLELISM.md; the invariants callers
// rely on:
//
//  * Deterministic by construction. ParallelFor runs a pure body over
//    disjoint indices, so a caller whose body is a pure function of its
//    index gets bit-identical results for EVERY thread count, including
//    1.
//
//  * num_threads == 1 is an exact sequential fallback: the body runs
//    inline on the calling thread, the pool is never touched (not even
//    lazily constructed), and no synchronization happens. num_threads ==
//    0 means DefaultThreads() — the GRAPHSCAPE_THREADS environment
//    override, else std::thread::hardware_concurrency().
//
//  * Allocation-free dispatch. A parallel region is published to the
//    pool as a plain function pointer plus a context pointer (no
//    std::function, no per-task heap nodes), so hot loops that dispatch
//    one region per iteration (spring layout) stay allocation-free after
//    the pool's one-time lazy spawn. Callers needing per-thread scratch
//    allocate it up front, indexed by the dense `lane` id every block
//    invocation receives — the per-thread arena pattern the
//    allocation-discipline tests pin.
//
//  * Lanes, not threads. A region running at effective width T hands out
//    lane ids 0..T-1; lane 0 is always the calling thread. A lane
//    processes whole blocks, so per-lane scratch never needs interior
//    locking; blocks are claimed dynamically (atomic counter) for load
//    balance, which is safe precisely because nothing downstream may
//    depend on the block -> lane assignment.

#ifndef GRAPHSCAPE_COMMON_PARALLEL_H_
#define GRAPHSCAPE_COMMON_PARALLEL_H_

#include <cstdint>

namespace graphscape {

/// Hard ceiling on pool width; requests beyond it are clamped.
inline constexpr uint32_t kMaxThreads = 64;

/// The session-wide default width: GRAPHSCAPE_THREADS if set to a
/// positive integer (clamped to [1, kMaxThreads]; empty or malformed
/// values are ignored), else std::thread::hardware_concurrency(), else 1.
uint32_t DefaultThreads();

struct ParallelOptions {
  /// Lanes to run on. 0 = DefaultThreads(); 1 = exact sequential inline
  /// execution (the pool is not touched).
  uint32_t num_threads = 0;
  /// Minimum indices per block. 0 lets the algorithm pick its own grain
  /// (ParallelFor defaults to 1024).
  uint64_t grain = 0;
};

/// The lane count a region with these options will actually use for a
/// range of `count` indices — what callers size per-lane scratch by.
/// Never exceeds the block count (a lane with no block to claim is not
/// spawned into the region).
uint32_t EffectiveLanes(const ParallelOptions& options, uint64_t count);

namespace internal {

/// One region: invoke fn(ctx, block, lane) for every block in
/// [0, num_blocks), spread over num_threads lanes (lane 0 = caller).
/// Blocks are claimed dynamically; the call returns after every block
/// completed and every worker lane has left the region. Thread-safe but
/// regions are serialized — one region runs at a time.
void RunRegion(uint32_t num_threads, uint64_t num_blocks,
               void (*fn)(void* ctx, uint64_t block, uint32_t lane),
               void* ctx);

inline uint64_t ResolveGrain(uint64_t grain, uint64_t fallback) {
  return grain == 0 ? fallback : grain;
}

}  // namespace internal

/// body(i) for every i in [begin, end), spread over the pool. The body
/// must be safe to run concurrently for distinct indices (disjoint
/// writes); index -> lane assignment is unspecified.
template <typename Body>
void ParallelFor(uint64_t begin, uint64_t end, const ParallelOptions& options,
                 Body&& body) {
  if (begin >= end) return;
  const uint64_t count = end - begin;
  const uint64_t grain = internal::ResolveGrain(options.grain, 1024);
  const uint32_t lanes = EffectiveLanes(options, count);
  if (lanes <= 1) {
    for (uint64_t i = begin; i < end; ++i) body(i);
    return;
  }
  struct Ctx {
    Body* body;
    uint64_t begin, end, grain;
  } ctx{&body, begin, end, grain};
  const uint64_t num_blocks = (count + grain - 1) / grain;
  internal::RunRegion(
      lanes, num_blocks,
      [](void* raw, uint64_t block, uint32_t) {
        Ctx* c = static_cast<Ctx*>(raw);
        const uint64_t lo = c->begin + block * c->grain;
        const uint64_t hi = lo + c->grain < c->end ? lo + c->grain : c->end;
        for (uint64_t i = lo; i < hi; ++i) (*c->body)(i);
      },
      &ctx);
}

/// body(block, lane) for every block in [0, num_blocks). The caller owns
/// the block -> range mapping; `lane` (dense in [0, EffectiveLanes))
/// indexes per-thread scratch. Nothing may depend on which lane ran
/// which block.
template <typename Body>
void ParallelForBlocks(uint64_t num_blocks, const ParallelOptions& options,
                       Body&& body) {
  if (num_blocks == 0) return;
  const uint32_t lanes =
      EffectiveLanes({options.num_threads, /*grain=*/1}, num_blocks);
  if (lanes <= 1) {
    for (uint64_t b = 0; b < num_blocks; ++b) body(b, 0u);
    return;
  }
  struct Ctx {
    Body* body;
  } ctx{&body};
  internal::RunRegion(
      lanes, num_blocks,
      [](void* raw, uint64_t block, uint32_t lane) {
        (*static_cast<Ctx*>(raw)->body)(block, lane);
      },
      &ctx);
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMON_PARALLEL_H_
