#pragma once
/// \file parallel.hpp
/// parallel_for abstraction over the internal thread pool (serial at width
/// 1). Grain-size aware so tiny loops stay serial (the PIC hot loops at
/// paper scale are ~64k iterations; NN GEMMs dominate).
///
/// The entry points are templates: the loop body is a template
/// parameter, so dispatch costs one indirect call per *chunk* instead of a
/// std::function construction per chunk. The partition width is
/// `parallel_workers()`: the DLPIC_THREADS environment variable or an
/// explicit set_max_workers() call caps it, otherwise it follows the
/// hardware. The partition (and therefore any reduction order built on
/// worker indices) depends only on the configured width, never on how many
/// OS threads actually execute the chunks, which keeps parallel results
/// reproducible for a fixed width.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace dlpic::util {

/// Partition width parallel_for will use (1 when serial): the configured
/// cap when set, otherwise the hardware worker count.
size_t parallel_workers();

/// Caps the partition width for subsequent parallel loops. 0 restores the
/// default (DLPIC_THREADS environment variable, else hardware concurrency).
/// Process-global; intended for startup plumbing and for serial/parallel
/// comparisons in tests and benches.
void set_max_workers(size_t n);

/// The currently configured cap (0 = automatic).
size_t max_workers();

/// RAII thread-local width override: parallel loops issued by the calling
/// thread partition at most `n` wide for the scope's lifetime (0 = no-op,
/// keeps the current width). Unlike ScopedMaxWorkers this touches no
/// process-global state, so concurrent threads can hold different caps —
/// the mechanism behind per-ExecutionContext worker policy. Nestable.
class ScopedWorkerCap {
 public:
  explicit ScopedWorkerCap(size_t n);
  ~ScopedWorkerCap();
  ScopedWorkerCap(const ScopedWorkerCap&) = delete;
  ScopedWorkerCap& operator=(const ScopedWorkerCap&) = delete;

 private:
  size_t previous_;
};

/// RAII thread-local serial pin: parallel loops issued by the calling thread
/// run serially (parallel_workers() reports 1) for the scope's lifetime.
/// Unlike ScopedMaxWorkers this touches no process-global state, so it is
/// safe to apply concurrently from many threads — the mechanism behind
/// "one serial inner context per dataset-generator run": independent PIC
/// simulations fan out across the pool while each run's inner loops stay
/// serial and bitwise reproducible for any outer worker count. Nestable.
class ScopedSerialExecution {
 public:
  ScopedSerialExecution();
  ~ScopedSerialExecution();
  ScopedSerialExecution(const ScopedSerialExecution&) = delete;
  ScopedSerialExecution& operator=(const ScopedSerialExecution&) = delete;
};

/// RAII worker-cap override: applies `n` for the scope's lifetime and
/// restores the previous cap on destruction. n == 0 is a no-op (keeps the
/// current setting), which lets callers plumb "0 = inherit" knobs through
/// unconditionally.
class ScopedMaxWorkers {
 public:
  explicit ScopedMaxWorkers(size_t n) : previous_(max_workers()), active_(n > 0) {
    if (active_) set_max_workers(n);
  }
  ~ScopedMaxWorkers() {
    if (active_) set_max_workers(previous_);
  }
  ScopedMaxWorkers(const ScopedMaxWorkers&) = delete;
  ScopedMaxWorkers& operator=(const ScopedMaxWorkers&) = delete;

 private:
  size_t previous_;
  bool active_;
};

/// Number of contiguous chunks parallel_for_workers will split `n`
/// iterations into given `grain` — call it to size per-worker scratch
/// buffers before the loop. Always >= 1 for n > 0.
size_t worker_partition_count(size_t n, size_t grain);

namespace detail {

using ChunkFn = void (*)(void* ctx, size_t lo, size_t hi);
using WorkerChunkFn = void (*)(void* ctx, size_t worker, size_t lo, size_t hi);

/// Runs fn over a dynamic partition of [begin, end) on the worker backend.
void run_chunks(size_t begin, size_t end, size_t grain, ChunkFn fn, void* ctx);

/// Runs fn over exactly worker_partition_count(end - begin, grain)
/// contiguous chunks, passing the stable chunk index as `worker`.
void run_worker_chunks(size_t begin, size_t end, size_t grain, WorkerChunkFn fn,
                       void* ctx);

}  // namespace detail

/// Runs body(chunk_begin, chunk_end) over contiguous ranges — cheaper than
/// per-index dispatch for tight numeric kernels. The body is a template
/// parameter: no type erasure on the hot path.
template <class Body>
void parallel_for_chunks(size_t begin, size_t end, Body&& body, size_t grain = 1024) {
  using B = std::remove_reference_t<Body>;
  detail::run_chunks(
      begin, end, grain,
      [](void* ctx, size_t lo, size_t hi) { (*static_cast<B*>(ctx))(lo, hi); },
      (void*)std::addressof(body));
}

/// Runs body(i) for i in [begin, end). Chunks of at least `grain` iterations
/// are dispatched per worker; loops smaller than `grain` run serially.
/// The body must be thread-safe across distinct indices.
template <class Body>
void parallel_for(size_t begin, size_t end, Body&& body, size_t grain = 1024) {
  parallel_for_chunks(
      begin, end,
      [&body](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

/// Runs body(worker, chunk_begin, chunk_end) over a fixed partition of
/// [begin, end) into worker_partition_count(end - begin, grain) contiguous
/// chunks. Each `worker` index is used at most once per call, so it can
/// index private scratch buffers (per-thread deposit accumulators); the
/// partition is deterministic for a fixed parallel_workers() width.
template <class Body>
void parallel_for_workers(size_t begin, size_t end, Body&& body, size_t grain = 1) {
  using B = std::remove_reference_t<Body>;
  detail::run_worker_chunks(
      begin, end, grain,
      [](void* ctx, size_t worker, size_t lo, size_t hi) {
        (*static_cast<B*>(ctx))(worker, lo, hi);
      },
      (void*)std::addressof(body));
}

/// Fixed block width of ordered_block_sum / ordered_block_max. A constant
/// (never derived from the worker count) so the reduction tree — and
/// therefore the floating-point result — is identical for every width.
constexpr size_t kOrderedReduceBlock = 8192;

namespace detail {

/// Shared stage of the ordered block reductions: evaluates `body(lo, hi)`
/// over the fixed kOrderedReduceBlock partition of [0, n) in parallel,
/// storing one partial per block in the calling thread's grow-only buffer.
/// Returns the partials pointer and writes the block count; only the final
/// (serial, in-block-order) combine differs between reductions.
template <class Body>
const double* ordered_block_partials(size_t n, Body& body, size_t& blocks) {
  blocks = (n + kOrderedReduceBlock - 1) / kOrderedReduceBlock;
  thread_local std::vector<double> partials;
  if (partials.size() < blocks) partials.resize(blocks);
  // Capture the calling thread's buffer by pointer: the body may run on
  // pool workers, whose own thread_local buffer is a different object.
  double* parts = partials.data();
  parallel_for(
      0, blocks,
      [&body, parts, n](size_t block) {
        const size_t lo = block * kOrderedReduceBlock;
        parts[block] = body(lo, std::min(n, lo + kOrderedReduceBlock));
      },
      /*grain=*/1);
  return parts;
}

}  // namespace detail

/// Worker-count-invariant ordered sum: `body(lo, hi)` returns the partial
/// over [lo, hi) accumulated in ascending-index order; partials are computed
/// over fixed kOrderedReduceBlock-wide blocks (in parallel) and summed in
/// block order. Because the block partition depends only on `n`, the result
/// is bitwise identical for 1, 2 or any number of workers; for
/// n <= kOrderedReduceBlock it equals the plain serial loop. Steady-state
/// allocation-free (the partial buffer is thread_local and grow-only).
template <class Body>
double ordered_block_sum(size_t n, Body&& body) {
  if (n == 0) return 0.0;
  if (n <= kOrderedReduceBlock) return body(size_t{0}, n);
  size_t blocks = 0;
  const double* parts = detail::ordered_block_partials(n, body, blocks);
  double acc = 0.0;
  for (size_t block = 0; block < blocks; ++block) acc += parts[block];
  return acc;
}

/// Worker-count-invariant max-reduction over fixed blocks; `body(lo, hi)`
/// returns the maximum over [lo, hi). `init` seeds the reduction (e.g. 0.0
/// for absolute errors). Same invariance and allocation guarantees as
/// ordered_block_sum (max is order-insensitive, but the fixed partition
/// keeps the parallel dispatch uniform).
template <class Body>
double ordered_block_max(size_t n, double init, Body&& body) {
  if (n == 0) return init;
  if (n <= kOrderedReduceBlock) return std::max(init, body(size_t{0}, n));
  size_t blocks = 0;
  const double* parts = detail::ordered_block_partials(n, body, blocks);
  double m = init;
  for (size_t block = 0; block < blocks; ++block) m = std::max(m, parts[block]);
  return m;
}

}  // namespace dlpic::util
