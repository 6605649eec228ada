#pragma once
/// \file metrics.hpp
/// Observability surface of the serving stack: lock-free per-model/per-lane
/// counters and log-bucketed latency histograms, a registry that aggregates
/// them, and Prometheus-style text / JSON snapshot exposition.
///
/// Coherency model. The counters of one batch (served-per-lane,
/// expired-per-lane, rejected, batch size) are committed in ONE seqlock
/// write to the batch's model (ModelMetrics::record), and snapshots
/// retry until they observe a quiescent version — so the accounting
/// invariant `requests == served + expired + rejected` holds in EVERY
/// snapshot, even mid-traffic, not just after quiesce. All fields are
/// atomics, so the scheme is data-race-free under TSan; writers never
/// block readers and vice versa (readers spin, writers CAS the version).
/// Latency histograms are independent monotone atomics outside the seqlock:
/// a histogram's count may trail the served counter by the requests
/// currently between forward pass and scatter, and matches it exactly once
/// traffic quiesces.
///
/// Exposition: MetricsRegistry::to_prometheus() renders the classic
/// text format (counters, gauges, `_bucket`/`_sum`/`_count` histogram
/// series with powers-of-two `le` bounds in microseconds); to_json()
/// renders the same data as one nested JSON object for programmatic
/// scraping. Both are deterministic given the counter values (models in id
/// order, lanes in lane order, gauges in registration order).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request_queue.hpp"

namespace dlpic::serve {

/// Display name of a priority lane ("interactive" / "bulk").
const char* lane_name(size_t lane);

/// Lock-free log2-bucketed latency histogram (microseconds). Bucket i
/// counts samples with `us <= 2^i` (and above the previous bound); the last
/// bucket is the +Inf overflow. 22 finite buckets cover 1 us .. ~2.1 s,
/// which spans a sub-millisecond forward pass and a multi-second stall.
/// record() is two relaxed fetch_adds — safe from any number of threads.
class LatencyHistogram {
 public:
  /// Finite buckets (upper bounds 2^0 .. 2^21 microseconds).
  static constexpr size_t kNumFiniteBuckets = 22;
  /// Finite buckets + the +Inf overflow bucket.
  static constexpr size_t kNumBuckets = kNumFiniteBuckets + 1;

  /// The bucket a latency falls into: smallest i with us <= 2^i, clamped to
  /// the overflow bucket.
  [[nodiscard]] static size_t bucket_index(uint64_t us);

  /// Upper bound of a finite bucket in microseconds (2^bucket); UINT64_MAX
  /// for the overflow bucket.
  [[nodiscard]] static uint64_t bucket_upper_bound_us(size_t bucket);

  /// Adds one sample.
  void record(uint64_t us);

  /// Plain-value copy of the histogram (per-bucket counts, total count,
  /// sum of samples). Relaxed reads — exact once writers quiesce.
  struct Snapshot {
    std::array<uint64_t, kNumBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum_us = 0;
    /// Mean sample in microseconds (0 when empty).
    [[nodiscard]] double mean_us() const {
      return count > 0 ? static_cast<double>(sum_us) / static_cast<double>(count) : 0.0;
    }
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
};

using HistogramSnapshot = LatencyHistogram::Snapshot;

/// Snapshot of one lane's serving counters for one model.
struct LaneStats {
  size_t served = 0;   ///< requests that went through a forward pass
  size_t expired = 0;  ///< requests rejected with DeadlineExpired
  size_t batches = 0;  ///< forward passes that carried >= 1 request of this lane
  /// Submit-to-scatter latency of served requests of this lane.
  HistogramSnapshot latency;
  /// Mean requests of this lane per forward pass that carried the lane.
  [[nodiscard]] double mean_batch() const {
    return batches > 0 ? static_cast<double>(served) / static_cast<double>(batches) : 0.0;
  }
};

/// Snapshot of one model's serving counters (aggregate + per lane).
struct ModelStats {
  std::string name;
  size_t served = 0;              ///< requests that went through a forward pass
  size_t expired = 0;             ///< requests rejected with DeadlineExpired
  size_t rejected = 0;            ///< malformed requests failed before assembly
  size_t batches = 0;             ///< forward passes run for this model
  size_t forward_errors = 0;      ///< forward passes that threw
  size_t max_batch_observed = 0;  ///< largest coalesced batch seen
  std::array<LaneStats, kNumLanes> lanes;
  [[nodiscard]] double mean_batch() const {
    return batches > 0 ? static_cast<double>(served) / static_cast<double>(batches) : 0.0;
  }
};

/// One popped batch's complete counter delta, committed atomically (one
/// seqlock write) so snapshots always see closed totals.
struct BatchAccounting {
  std::array<size_t, kNumLanes> served{};   ///< kept for the forward pass, per lane
  std::array<size_t, kNumLanes> expired{};  ///< failed with DeadlineExpired, per lane
  size_t rejected = 0;                      ///< failed for any other reason
  bool forward_pass = false;                ///< a forward pass ran (batches += 1)
  size_t batch_size = 0;                    ///< kept rows (max-batch candidate)
};

/// Server-wide serving counters: the sum of every model's coherent
/// snapshot (each served batch lands in exactly one model's block), so the
/// accounting invariant `requests == served + expired + rejected` closes
/// exactly in every result, even under full concurrent traffic.
struct ServerStats {
  size_t requests = 0;            ///< requests popped (served + expired + rejected)
  size_t served = 0;              ///< requests that went through a forward pass
  size_t batches = 0;             ///< forward passes run
  size_t max_batch_observed = 0;  ///< largest coalesced batch seen
  size_t expired = 0;             ///< requests rejected with DeadlineExpired
  size_t rejected = 0;            ///< malformed requests failed before assembly
  size_t forward_errors = 0;      ///< forward passes that threw
  size_t drained = 0;             ///< leftover requests failed at shutdown
  /// Mean served requests per forward pass — the batching amortization
  /// factor (expired/rejected requests never ride a batch, so they do not
  /// count).
  [[nodiscard]] double mean_batch() const {
    return batches > 0 ? static_cast<double>(served) / static_cast<double>(batches) : 0.0;
  }
};

/// Per-model serving counters + per-lane latency histograms, shared by
/// every batcher thread that serves the model. Counter groups commit under
/// a multi-writer seqlock (CAS claims the version); histograms are
/// independent monotone atomics.
class ModelMetrics {
 public:
  /// Commits one batch's counters atomically.
  void record(const BatchAccounting& accounting);
  /// Counts one failed forward pass.
  void record_forward_error();
  /// Adds one served request's submit-to-scatter latency.
  void record_latency(size_t lane, uint64_t us) { latency_[lane].record(us); }
  /// Coherent group read of the counters + relaxed histogram copies.
  /// `name` is left empty (the registry/bundle knows it).
  [[nodiscard]] ModelStats snapshot() const;

 private:
  uint64_t acquire_write();

  std::atomic<uint64_t> version_{0};
  std::array<std::atomic<size_t>, kNumLanes> served_{};
  std::array<std::atomic<size_t>, kNumLanes> expired_{};
  std::array<std::atomic<size_t>, kNumLanes> lane_batches_{};
  std::atomic<size_t> rejected_{0};
  std::atomic<size_t> batches_{0};
  std::atomic<size_t> forward_errors_{0};
  std::atomic<size_t> max_batch_{0};
  std::array<LatencyHistogram, kNumLanes> latency_;
};

/// Aggregation + exposition hub for one server: owns heap-pinned per-model
/// metrics (stable pointers across add_model growth) and any number of
/// callback gauges (e.g. queue depths), and renders everything as
/// Prometheus text or JSON. Server totals are always the sum of the
/// per-model blocks, never a second set of counters.
///
/// Thread-safety: registration and exposition lock a registry mutex; the
/// metric objects themselves are lock-free, so serving threads never touch
/// that mutex.
class MetricsRegistry {
 public:
  /// Registers a model's metrics block and returns its stable pointer.
  ModelMetrics* add_model(std::string name);

  /// Number of registered models.
  [[nodiscard]] size_t model_count() const;

  /// Sum of one coherent snapshot per model (`drained` stays 0: the
  /// server owns that count). The accounting invariant holds for the sum
  /// because it holds per snapshot.
  [[nodiscard]] ServerStats totals() const;

  /// Registers a callback gauge, rendered as
  /// `name{label_key="label_value"} value` (labels omitted when empty).
  /// The callback must stay valid for the registry's lifetime, be safe to
  /// call from any scraping thread, and take neither the request queue's
  /// nor the model registry's lock: it runs under this registry's lock,
  /// which is taken after those two (InferenceServer's gauges read
  /// lock-free counters).
  void register_gauge(std::string name, std::string label_key, std::string label_value,
                      std::function<size_t()> fn);

  /// Prometheus text exposition of server totals, gauges, per-model
  /// counters and latency histograms. Every family is rendered from one
  /// snapshot per model, so the server totals equal the sum of the
  /// per-model rows of the same scrape.
  [[nodiscard]] std::string to_prometheus() const;

  /// The same data as one nested JSON object (same one-snapshot rule).
  [[nodiscard]] std::string to_json() const;

  /// Writes to_prometheus() / to_json() to a file (throws
  /// std::runtime_error naming the path when the file cannot be opened or
  /// the write fails, e.g. on a full device).
  void write_prometheus(const std::string& path) const;
  void write_json(const std::string& path) const;

 private:
  struct ModelEntry {
    std::string name;
    ModelMetrics metrics;
  };
  struct Gauge {
    std::string name;
    std::string label_key;
    std::string label_value;
    std::function<size_t()> fn;
  };

  /// One named snapshot per model, in id order. Pre: mutex_ held.
  [[nodiscard]] std::vector<ModelStats> snapshot_models_locked() const;

  mutable std::mutex mutex_;  // guards the tables below, not the counters
  std::vector<std::unique_ptr<ModelEntry>> models_;
  std::vector<Gauge> gauges_;
};

}  // namespace dlpic::serve
