#pragma once
/// \file thread_pool.hpp
/// Fixed-size worker pool backing dlpic::util::parallel_for. Work items are small trivially-copyable closures stored
/// inline in a fixed ring of task slots — submit() performs no heap
/// allocation, so steady-state parallel dispatch is allocation-free (the
/// operator-new-counting test in tests/nn/test_execution_context.cpp covers
/// a parallel training step including task submission).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dlpic::util {

/// Shared-queue thread pool over an inline-storage task ring. A task that
/// throws no longer takes the process down: the escaping exception is logged
/// with context, captured, and rethrown from the next wait_idle() call
/// (first failure wins; later ones are logged and dropped). All submitted
/// tasks still run to completion before wait_idle() returns or throws.
class ThreadPool {
 public:
  /// Inline bytes available per task slot. parallel_for's dispatch closures
  /// capture seven words; 64 bytes covers them with headroom. Bigger
  /// closures fail the submit() static_assert — capture by pointer instead.
  static constexpr size_t kTaskStorageBytes = 64;

  /// Spawns `threads` workers (default: DLPIC_THREADS when set, otherwise
  /// hardware_concurrency, at least 1).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task by copying it into an inline slot: no heap
  /// allocation on any submit. The callable must be trivially copyable and
  /// destructible and fit kTaskStorageBytes (parallel_for's closures, and
  /// any lambda capturing only scalars/pointers/references, qualify).
  /// Blocks briefly when the ring is momentarily full — safe because tasks
  /// never submit tasks (nested parallel regions run serially).
  template <class F>
  void submit(F&& task) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kTaskStorageBytes,
                  "ThreadPool::submit: closure too large for inline task storage; "
                  "capture a pointer to shared state instead");
    static_assert(std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>,
                  "ThreadPool::submit: closure must be trivially copyable (capture "
                  "scalars, pointers or references only)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "ThreadPool::submit: over-aligned closure");
    const Fn local(std::forward<F>(task));
    submit_raw([](void* p) { (*static_cast<Fn*>(p))(); }, &local, sizeof(Fn));
  }

  /// Blocks until every submitted task has finished. Rethrows the first
  /// exception that escaped a task since the previous wait_idle().
  void wait_idle();

  /// Stops and re-spawns the workers at a new width (0 = the constructor's
  /// default sizing). Waits for in-flight tasks to finish first. Safe
  /// against concurrent submit()/wait_idle() callers: a task submitted
  /// during the restart window is either drained by the exiting workers or
  /// carried over to the respawned ones, never lost (resize itself must not
  /// be called concurrently from two threads). Returns once the respawn is
  /// done; with a continuous stream of concurrent submits it waits for a
  /// gap where nothing is in flight.
  void resize(size_t threads);

  /// Current worker count (lock-free: read on every parallel_for dispatch).
  [[nodiscard]] size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// True when the calling thread is a worker of any ThreadPool — used by
  /// parallel_for to run nested parallel regions serially instead of
  /// deadlocking in wait_idle().
  static bool on_worker_thread();

  /// Process-wide pool shared by parallel_for (lazily constructed).
  static ThreadPool& global();

 private:
  /// One inline task: a trampoline plus the closure bytes it interprets.
  struct TaskSlot {
    void (*invoke)(void*) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kTaskStorageBytes];
  };

  void submit_raw(void (*invoke)(void*), const void* closure, size_t bytes);
  void worker_loop();
  void spawn_locked(size_t threads);
  void stop_and_join();

  std::vector<std::thread> workers_;
  std::atomic<size_t> size_{0};  // == workers_.size(), lock-free snapshot
  std::vector<TaskSlot> ring_;   // fixed-capacity circular task buffer
  size_t head_ = 0;             // index of the oldest queued task
  size_t queued_ = 0;           // tasks currently in the ring
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::condition_variable cv_space_;  // signaled when a slot frees up
  std::exception_ptr first_error_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace dlpic::util
