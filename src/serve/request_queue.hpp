#pragma once
/// \file request_queue.hpp
/// Thread-safe, priority-laned queue of single-sample inference requests —
/// the front door of the serving subsystem. Producers (client threads) push
/// flattened input samples tagged with a priority lane, an optional absolute
/// deadline, and a model id, and receive a std::future for the result;
/// consumers (batcher threads) pop coalesced single-model batches under a
/// condition variable with a per-model max-batch / max-wait policy.
///
/// Scheduling model:
///  - Two strict-priority lanes (Priority::kInteractive drains before
///    Priority::kBulk). A batch is opened for the model at the head of the
///    highest non-empty lane and collects that model's requests interactive
///    lane first — bulk traffic rides along only on leftover batch slots, so
///    latency-sensitive requests never queue behind a bulk backlog.
///  - A batch never mixes models: pop_batch returns requests of exactly one
///    model_id, and the batching window only refills from that model.
///  - The batching window is clamped to the earliest deadline of the
///    requests already collected, so a request close to expiry is handed to
///    the batcher (to be served or expired) without waiting out max_wait.
///
/// Lifecycle: push() hands back a future tied to the request's promise. A
/// consumer fulfils the promise after running inference (or fails it with
/// DeadlineExpired without running inference when the deadline has passed).
/// close() stops new work while letting consumers drain what is already
/// queued, which is how InferenceServer shuts down without dropping
/// in-flight requests. A closed queue stays closed.
///
/// Locking: pop_batch calls its policy lookup with the queue lock held
/// (InferenceServer's lookup takes the model registry's lock), so the order
/// is queue → registry. size() reads atomic counters without the lock, so
/// a metrics scrape that reads the queue depths never waits on the queue.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "serve/trace.hpp"

namespace dlpic::serve {

/// Scheduling lane of a request. Strict priority: interactive requests are
/// always drained before bulk requests of any age.
enum class Priority : uint8_t {
  kInteractive = 0,  ///< latency-sensitive lane, drained first
  kBulk = 1,         ///< throughput lane, served on leftover capacity
};

/// Number of priority lanes (the Priority enumerators are lane indices).
inline constexpr size_t kNumLanes = 2;

/// Upper bound on model ids the queue accepts. Lanes hold one FIFO per
/// model id, so an unchecked id would size those tables; any realistic
/// registry is orders of magnitude smaller.
inline constexpr size_t kMaxModels = 4096;

/// Sentinel deadline meaning "never expires".
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// The distinct failure a request receives when its deadline passed before
/// inference started. Expired requests are rejected *before* forward-pass
/// assembly — a server at capacity sheds them without spending compute.
class DeadlineExpired : public std::runtime_error {
 public:
  DeadlineExpired()
      : std::runtime_error("serve: request deadline expired before inference started") {}
};

/// One queued inference request: the flattened input sample plus the promise
/// the batcher fulfils (value on success, exception on failure), tagged with
/// its scheduling lane, expiry deadline and target model.
struct Request {
  /// Flattened input sample (e.g. a phase-space histogram, row-major).
  std::vector<double> input;
  /// Fulfilled by the batcher with the model output row for this sample.
  std::promise<std::vector<double>> result;
  /// Scheduling lane.
  Priority priority = Priority::kBulk;
  /// Absolute expiry time; the request fails with DeadlineExpired when
  /// inference has not *started* by then. kNoDeadline = never expires.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  /// Which registered model serves this request (0 in single-model setups).
  size_t model_id = 0;
  /// Arrival stamp assigned by the queue; orders requests within a lane.
  uint64_t seq = 0;
  /// steady_clock nanoseconds at push() admission — the latency-histogram
  /// origin for served requests. Stamped by the queue.
  int64_t submit_ns = 0;
  /// Trace slot claimed for this request, or null when untraced. The queue
  /// stamps kEnqueue; downstream stages stamp the rest and finish the slot.
  TraceSlot* trace = nullptr;
};

/// Per-request scheduling options accepted by RequestQueue::push.
struct RequestOptions {
  Priority priority = Priority::kBulk;
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  size_t model_id = 0;
  /// Ask InferenceServer::submit to trace this request (needs the server's
  /// trace ring enabled via ServerConfig::trace_capacity). Ignored by the
  /// raw queue API.
  bool trace = false;
  /// Pre-claimed trace slot the request carries through the pipeline. Set
  /// by InferenceServer::submit (or by a direct queue user that claimed a
  /// slot from its own TraceRing).
  TraceSlot* trace_slot = nullptr;
};

/// Per-model batch-formation policy applied by pop_batch: how many requests
/// one batch may carry and how long an open batch waits for more.
struct PopPolicy {
  size_t max_batch = 1;
  std::chrono::microseconds max_wait{0};
};

/// Lock-guarded, condition-variable request queue with two strict-priority
/// lanes, per-model sub-queues, optional bounded capacity (backpressure) and
/// single-model batch-popping semantics.
///
/// Thread-safety: every member is safe to call concurrently from any number
/// of producer and consumer threads.
class RequestQueue {
 public:
  /// `capacity` bounds the number of queued (not yet popped) requests across
  /// all lanes; push() blocks while the queue is full. 0 means unbounded.
  explicit RequestQueue(size_t capacity = 0) : capacity_(capacity) {}

  /// Enqueues one request and returns the future for its result. Blocks
  /// while a bounded queue is full. Throws std::runtime_error once the
  /// queue is closed and std::invalid_argument when options.model_id >=
  /// kMaxModels (the per-lane FIFO tables are sized by model id).
  std::future<std::vector<double>> push(std::vector<double> input,
                                        const RequestOptions& options = {});

  /// Pops one single-model batch into `out` (cleared first). Blocks until at
  /// least one request is available or the queue is closed; then selects the
  /// model at the head of the highest-priority non-empty lane, reads that
  /// model's policy as `policy_of(model_id)` — once, under the queue lock, as
  /// the batch opens — and keeps collecting that model's requests
  /// (interactive lane first) until the batch is full, the batching window —
  /// clamped to the earliest deadline in hand — elapses, or the queue is
  /// closed. Returns the number popped; 0 only when the queue is closed and
  /// drained, the consumer's signal to exit. Expired requests are returned
  /// like any other; rejecting them is the consumer's job (so the queue never
  /// touches promises). `policy_of` must not call back into this queue.
  size_t pop_batch(std::vector<Request>& out,
                   const std::function<PopPolicy(size_t)>& policy_of);

  /// Rejects subsequent push() calls and wakes every waiter — including
  /// producers blocked on backpressure, whose push() then throws. Requests
  /// already queued remain poppable so consumers can drain them (graceful
  /// shutdown). Idempotent.
  void close();

  /// True once close() has been called.
  [[nodiscard]] bool closed() const;

  /// Moves every queued request (all lanes, all models) into `out` (cleared
  /// first) and returns the count. Never blocks, never touches promises and
  /// carries no fault-injection point — the shutdown path uses it to fail
  /// leftover requests after workers died, so it must always make progress.
  size_t drain(std::vector<Request>& out);

  /// Requests currently queued across all lanes (racy snapshot; lock-free).
  [[nodiscard]] size_t size() const { return total_.load(std::memory_order_relaxed); }

  /// Requests currently queued in one lane (racy snapshot; lock-free).
  [[nodiscard]] size_t size(Priority lane) const {
    return lanes_[static_cast<size_t>(lane)].count.load(std::memory_order_relaxed);
  }

 private:
  /// One strict-priority lane: a FIFO per model (so batch collection for a
  /// model is O(1) per request) plus the lane's total occupancy. The counts
  /// change only under the lock; they are atomic for the lock-free size().
  struct Lane {
    std::vector<std::deque<Request>> per_model;  // grown on first push per model
    std::atomic<size_t> count{0};
  };

  /// Model at the head of the highest-priority non-empty lane — the oldest
  /// (smallest seq) front request of that lane. Pre: total_ > 0, lock held.
  [[nodiscard]] size_t select_model_locked() const;

  /// True when either lane holds a request for `model`. Lock held.
  [[nodiscard]] bool model_pending_locked(size_t model) const;

  /// Moves up to `budget` requests of `model` into `out`, interactive lane
  /// first, tracking the earliest deadline moved. Lock held.
  void collect_locked(std::vector<Request>& out, size_t model, size_t budget,
                      std::chrono::steady_clock::time_point& earliest_deadline);

  size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_pop_;   // signaled on push / close
  std::condition_variable cv_push_;  // signaled on pop / close (bounded mode)
  std::array<Lane, kNumLanes> lanes_;
  std::atomic<size_t> total_{0};
  uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace dlpic::serve
