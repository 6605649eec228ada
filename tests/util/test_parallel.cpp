#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dlpic::util;

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(1);
  pool.wait_idle();
  SUCCEED();
}

TEST(ThreadPool, SubmitMoreTasksThanRingCapacityCompletes) {
  // The inline task ring is fixed-capacity; submit briefly blocks when it
  // fills and must make progress as workers drain it.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 5000; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 5000);
}

TEST(ThreadPool, ResizeChangesWidthAndKeepsPoolUsable) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  pool.resize(3);  // waits for the in-flight tasks first
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(counter.load(), 10);
  for (int i = 0; i < 10; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
  pool.resize(0);  // 0 = default sizing, still at least one worker
  EXPECT_GE(pool.size(), 1u);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 21);
}

TEST(ThreadPool, ResizeRacingConcurrentSubmitsLosesNoTask) {
  // Several producers hammer submit() while the main thread cycles the pool
  // through different widths. Every submitted task must run exactly once:
  // tasks enqueued during a restart window are either drained by the
  // exiting workers or carried over (re-linearized) to the respawned ones.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<bool> stop{false};
  std::atomic<int> submitted{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int cycle = 0; cycle < 12; ++cycle) pool.resize(1 + cycle % 4);
  stop = true;
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), submitted.load())
      << "a resize dropped (or double-ran) submitted tasks";
  EXPECT_GT(submitted.load(), 0);
}

TEST(ThreadPool, ResizeRacingWaitIdleCompletes) {
  // wait_idle from one thread while another resizes: both must return, and
  // the pool must stay usable.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  std::thread waiter([&] { pool.wait_idle(); });
  pool.resize(3);
  waiter.join();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 65);
}

TEST(ThreadPool, ResizeGlobalPoolChangesParallelWidth) {
  // parallel_workers() follows the pool size when no cap is configured.
  const size_t prev_cap = max_workers();
  set_max_workers(0);
  auto& pool = ThreadPool::global();
  const size_t original = pool.size();
  pool.resize(3);
  EXPECT_EQ(parallel_workers(), 3u);
  std::atomic<int> hits{0};
  parallel_for(0, 10000, [&](size_t) { hits.fetch_add(1); }, /*grain=*/64);
  EXPECT_EQ(hits.load(), 10000);
  pool.resize(original);
  set_max_workers(prev_cap);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](size_t i) { hits[i].fetch_add(1); }, /*grain=*/64);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ForChunksPartitionIsExact) {
  const size_t n = 5371;  // deliberately not a multiple of any grain
  std::vector<std::atomic<int>> hits(n);
  parallel_for_chunks(
      0, n,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/128);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for_chunks(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SmallRangeRunsSerially) {
  // Ranges below the grain threshold must still produce correct results.
  std::vector<int> hits(10, 0);
  parallel_for(0, 10, [&](size_t i) { hits[i]++; }, /*grain=*/1024);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(Parallel, WorkerPartitionCoversRangeWithStableIndices) {
  const size_t prev = max_workers();
  set_max_workers(4);
  const size_t n = 10007;
  const size_t nbuf = worker_partition_count(n, /*grain=*/64);
  EXPECT_GE(nbuf, 1u);
  EXPECT_LE(nbuf, 4u);
  std::vector<std::atomic<int>> hits(n);
  std::vector<std::atomic<int>> used(nbuf);
  parallel_for_workers(
      0, n,
      [&](size_t worker, size_t lo, size_t hi) {
        ASSERT_LT(worker, nbuf);
        used[worker].fetch_add(1);
        for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/64);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  for (size_t w = 0; w < nbuf; ++w) EXPECT_LE(used[w].load(), 1) << "worker " << w;
  set_max_workers(prev);
}

TEST(ThreadPool, EscapingTaskExceptionIsRethrownFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(Parallel, BodyExceptionPropagatesToCaller) {
  const size_t prev = max_workers();
  set_max_workers(4);
  EXPECT_THROW(
      parallel_for(0, 100000,
                   [](size_t i) {
                     if (i == 51234) throw std::runtime_error("body boom");
                   },
                   /*grain=*/64),
      std::runtime_error);
  set_max_workers(prev);
}

}  // namespace
