#pragma once
/// \file trace.hpp
/// Structured per-request tracing for the serving stack. A traced request
/// carries a pointer to one TraceSlot in a fixed-capacity TraceRing; each
/// pipeline stage (submit → enqueue → pop_batch → assemble → forward →
/// scatter) stamps a steady_clock timestamp into the slot as the request
/// moves through, and the terminal stage records the outcome. The hot path
/// never allocates: claiming a slot is a bounded CAS scan over preallocated
/// slots, stamping is one relaxed atomic store, and an untraced request
/// (`SubmitOptions::trace == false`, the default) touches none of it beyond
/// a null-pointer check.
///
/// Concurrency: every slot field is an atomic, and a per-slot version word
/// forms a seqlock — odd while a writer owns the slot, even when the record
/// is complete. snapshot() returns only records whose version was stable and
/// even across the copy, so a reader never observes a half-written record,
/// and the whole scheme is data-race-free under TSan. When the ring wraps,
/// the oldest completed records are reclaimed; when every slot is in flight,
/// try_claim drops the trace (counted) rather than block.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dlpic::serve {

/// Pipeline stages a request is stamped at, in order. Stage order is the
/// timeline order; TraceRecord::ts_ns is indexed by these values.
enum class TraceStage : size_t {
  kSubmit = 0,  ///< InferenceServer::submit entry (after validation)
  kEnqueue,     ///< RequestQueue::push admitted the request
  kPop,         ///< pop_batch handed the request to a batcher
  kAssemble,    ///< batch tensor assembly started
  kForward,     ///< forward pass started
  kScatter,     ///< result row scattered to the future
  kCount
};

/// Number of trace stages.
inline constexpr size_t kNumTraceStages = static_cast<size_t>(TraceStage::kCount);

/// The stage's stable display name (e.g. "forward").
const char* trace_stage_name(TraceStage stage);

/// How a traced request left the pipeline.
enum class TraceOutcome : uint32_t {
  kInFlight = 0,  ///< not finished yet (never appears in a snapshot)
  kServed,        ///< value delivered after a forward pass
  kExpired,       ///< failed with DeadlineExpired before assembly
  kError,         ///< failed with any other exception
  kRejected,      ///< never admitted (push threw after the slot was claimed)
};

/// The outcome's stable display name (e.g. "served").
const char* trace_outcome_name(TraceOutcome outcome);

/// Current steady_clock time as the int64 nanosecond count trace slots
/// store. One definition so every stage stamp uses the same epoch.
[[nodiscard]] inline int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One ring entry. All-atomic so concurrent stamping and snapshotting are
/// race-free; the version word is the per-slot seqlock (odd = writer owns
/// it). Unstamped stages read 0.
struct TraceSlot {
  std::atomic<uint64_t> version{0};
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> model_id{0};
  std::atomic<uint32_t> lane{0};
  std::atomic<uint32_t> outcome{0};  // TraceOutcome
  std::array<std::atomic<int64_t>, kNumTraceStages> ts_ns{};

  /// Stamps one stage with the current steady_clock time. Pre: the slot is
  /// claimed by the calling request (version odd).
  void stamp(TraceStage stage) {
    ts_ns[static_cast<size_t>(stage)].store(trace_now_ns(), std::memory_order_relaxed);
  }
  /// Stamps one stage with a time the caller already read (so every request
  /// of a batch can share a single clock read).
  void stamp(TraceStage stage, int64_t now_ns) {
    ts_ns[static_cast<size_t>(stage)].store(now_ns, std::memory_order_relaxed);
  }
  /// Records the outcome and publishes the completed record (version goes
  /// even, release). After this the slot may be reclaimed by try_claim.
  void finish(TraceOutcome outcome_value) {
    outcome.store(static_cast<uint32_t>(outcome_value), std::memory_order_relaxed);
    version.fetch_add(1, std::memory_order_release);
  }
};

/// A completed trace record as copied out by snapshot(): plain values, in
/// timeline order by ts_ns. Unstamped stages hold 0.
struct TraceRecord {
  uint64_t seq = 0;
  uint64_t model_id = 0;
  uint32_t lane = 0;
  TraceOutcome outcome = TraceOutcome::kInFlight;
  std::array<int64_t, kNumTraceStages> ts_ns{};

  /// Nanoseconds between two stamped stages; 0 when either is unstamped.
  [[nodiscard]] int64_t stage_ns(TraceStage from, TraceStage to) const {
    const int64_t a = ts_ns[static_cast<size_t>(from)];
    const int64_t b = ts_ns[static_cast<size_t>(to)];
    return (a == 0 || b == 0) ? 0 : b - a;
  }
  /// Submit-to-scatter latency in nanoseconds (0 when not fully stamped).
  [[nodiscard]] int64_t total_ns() const {
    return stage_ns(TraceStage::kSubmit, TraceStage::kScatter);
  }
};

/// Fixed-capacity ring of trace slots shared by every request of one server.
/// capacity 0 builds a disabled ring: try_claim always returns nullptr and
/// nothing is allocated.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity = 0);

  /// Claims a slot for a new traced request, wiping its timestamps. Returns
  /// nullptr (and counts a drop) when tracing is disabled or every probed
  /// slot is owned by an in-flight request — tracing sheds load, it never
  /// blocks the serving path.
  TraceSlot* try_claim(uint64_t seq, uint64_t model_id, uint32_t lane);

  /// Copies out every completed record, oldest-to-newest claim order not
  /// guaranteed (callers sort by ts_ns[kSubmit] when order matters).
  /// In-flight slots and slots being concurrently reclaimed are skipped.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Slot count (0 = disabled).
  [[nodiscard]] size_t capacity() const { return slots_.size(); }
  /// True when the ring can hold records.
  [[nodiscard]] bool enabled() const { return !slots_.empty(); }
  /// Traces dropped because no slot could be claimed.
  [[nodiscard]] uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<TraceSlot[]> slots_storage_;
  // span view over the storage (unique_ptr<T[]> has no size)
  struct {
    TraceSlot* data = nullptr;
    size_t count = 0;
    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] size_t size() const { return count; }
    TraceSlot& operator[](size_t i) const { return data[i]; }
  } slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace dlpic::serve
