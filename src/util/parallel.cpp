#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace dlpic::util {

namespace {

constexpr size_t kUnset = static_cast<size_t>(-1);
std::atomic<size_t> g_max_workers{kUnset};

thread_local size_t t_serial_depth = 0;
thread_local size_t t_thread_cap = 0;

}  // namespace

size_t max_workers() {
  size_t v = g_max_workers.load(std::memory_order_relaxed);
  if (v == kUnset) {
    v = static_cast<size_t>(std::max(0L, env_int_or("DLPIC_THREADS", 0)));
    g_max_workers.store(v, std::memory_order_relaxed);
  }
  return v;
}

void set_max_workers(size_t n) { g_max_workers.store(n, std::memory_order_relaxed); }

ScopedSerialExecution::ScopedSerialExecution() { ++t_serial_depth; }
ScopedSerialExecution::~ScopedSerialExecution() { --t_serial_depth; }

ScopedWorkerCap::ScopedWorkerCap(size_t n) : previous_(t_thread_cap) {
  if (n > 0) t_thread_cap = n;
}
ScopedWorkerCap::~ScopedWorkerCap() { t_thread_cap = previous_; }

size_t parallel_workers() {
  // A serial pin — explicit (ScopedSerialExecution) or implicit (already on
  // a pool worker, where run_chunks would fall back to serial anyway) —
  // reports width 1 so scratch-buffer sizing via worker_partition_count()
  // matches how the chunks actually execute.
  if (t_serial_depth > 0 || ThreadPool::on_worker_thread()) return 1;
  // The calling thread's scoped cap (ExecutionContext worker policy) wins
  // over the process-global setting.
  if (t_thread_cap > 0) return t_thread_cap;
  const size_t cap = max_workers();
  return cap > 0 ? cap : ThreadPool::global().size();
}

size_t worker_partition_count(size_t n, size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return std::max<size_t>(1, std::min(parallel_workers(), (n + grain - 1) / grain));
}

namespace detail {

void run_chunks(size_t begin, size_t end, size_t grain, ChunkFn fn, void* ctx) {
  if (end <= begin) return;
  const size_t n = end - begin;
  if (grain == 0) grain = 1;
  const size_t workers = parallel_workers();
  if (workers <= 1 || n <= grain || ThreadPool::on_worker_thread()) {
    // Serial fallback; the on_worker_thread() case avoids a nested
    // wait_idle() deadlock when a parallel region calls another one.
    fn(ctx, begin, end);
    return;
  }
  // Over-decompose 4x for load balance, then hand chunks out dynamically.
  const size_t chunks = std::min(workers * 4, (n + grain - 1) / grain);
  const size_t step = (n + chunks - 1) / chunks;
  std::atomic<size_t> next{0};
  const auto drain = [&next, fn, ctx, begin, end, chunks, step] {
    for (size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      const size_t lo = begin + c * step;
      const size_t hi = std::min(end, lo + step);
      if (lo < hi) fn(ctx, lo, hi);
    }
  };
  auto& pool = ThreadPool::global();
  const size_t helpers = std::min({workers, chunks, pool.size()});
  if (helpers <= 1) {
    drain();
    return;
  }
  for (size_t t = 0; t < helpers; ++t) pool.submit(drain);
  pool.wait_idle();
}

void run_worker_chunks(size_t begin, size_t end, size_t grain, WorkerChunkFn fn,
                       void* ctx) {
  if (end <= begin) return;
  const size_t n = end - begin;
  const size_t chunks = worker_partition_count(n, grain);
  if (chunks <= 1 || ThreadPool::on_worker_thread()) {
    fn(ctx, 0, begin, end);
    return;
  }
  const size_t step = (n + chunks - 1) / chunks;
  std::atomic<size_t> next{0};
  const auto drain = [&next, fn, ctx, begin, end, chunks, step] {
    for (size_t w = next.fetch_add(1); w < chunks; w = next.fetch_add(1)) {
      const size_t lo = begin + w * step;
      const size_t hi = std::min(end, lo + step);
      if (lo < hi) fn(ctx, w, lo, hi);
    }
  };
  auto& pool = ThreadPool::global();
  const size_t helpers = std::min(chunks, pool.size());
  if (helpers <= 1) {
    drain();
    return;
  }
  for (size_t t = 0; t < helpers; ++t) pool.submit(drain);
  pool.wait_idle();
}

}  // namespace detail

}  // namespace dlpic::util
