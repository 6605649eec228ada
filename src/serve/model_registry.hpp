#pragma once
/// \file model_registry.hpp
/// Named model bundles hosted by one InferenceServer: each bundle couples a
/// trained model with its input normalizer, flattened input width, per-model
/// batch-formation policy, and per-lane serving counters. The registry hands
/// out stable bundle pointers so batcher threads can serve any registered
/// model without holding a lock across the forward pass, and supports
/// registration while the server is running: a new model is servable as
/// soon as add() returns, and its first batch already runs on its own
/// policy, because a batcher reads the policy (policy()) when it opens a
/// batch, not before it waits.
///
/// Lock order: queue → registry → metrics. The batcher's policy lookup
/// takes the registry lock inside RequestQueue::pop_batch, and add() takes
/// the metrics registry's lock inside its own. Nothing takes the queue lock
/// under either (the queue-depth gauges read lock-free counters).

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/normalizer.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"
#include "serve/metrics.hpp"
#include "serve/request_queue.hpp"

namespace dlpic::serve {

/// Upper bound accepted for ModelConfig::max_wait_us (60 s). Anything above
/// is almost certainly a negative value that wrapped on conversion to the
/// unsigned field; add() rejects it up front instead of letting a
/// ~71-minute batching window stall a lane at runtime.
inline constexpr uint32_t kMaxWaitUs = 60'000'000;

/// Per-model batch-formation knobs (one forward pass's shape policy).
struct ModelConfig {
  /// Largest batch one forward pass may carry. Must be >= 1.
  size_t max_batch = 16;
  /// How long an open batch waits for more requests before a partial flush,
  /// in microseconds. 0 serves whatever is immediately available.
  uint32_t max_wait_us = 200;
  /// When non-zero, every forward pass runs at exactly this row count
  /// (>= max_batch): partial batches are zero-padded and the padded rows
  /// are dropped before the result scatter. Bitwise-neutral (rows are
  /// computed independently); keeps the SIMD GEMM on full tiles and the
  /// workspace at one steady-state size.
  size_t pad_to_batch = 0;
  /// Numeric precision this model's forward passes run at — a three-rung
  /// accuracy/throughput ladder. kF64 (default) is the full-precision path
  /// with the bitwise batched == serial contract. kInt16 and kInt8 route
  /// every Dense and Conv2D GEMM through the per-row dynamic quantized
  /// kernels: int8 is the fastest with the loosest accuracy budget; int16
  /// sits between — near-f64 accuracy at a still-substantial GEMM speedup.
  /// Both quantized tiers stay bitwise reproducible across backends,
  /// workers, and batch sizes. The registry validates the model is
  /// quantizable and builds the bundle's precise quantized weight cache at
  /// add() time for either quantized precision. Pick kInt8 for bulk lanes,
  /// kInt16 for lanes needing tighter error, kF64 for validation lanes.
  nn::Precision precision = nn::Precision::kF64;
};

/// One hosted model: identity, inference dependencies, batching policy and
/// a pointer to its lock-free metrics block (updated by any batcher thread,
/// readable while serving). Immutable after registration except through the
/// metrics, which is what lets batchers use a bundle without locking.
/// (LaneStats / ModelStats snapshot shapes live in serve/metrics.hpp.)
struct ModelBundle {
  std::string name;
  nn::Sequential* model = nullptr;           ///< the network, caller-owned
  const data::MinMaxNormalizer* normalizer = nullptr;  ///< optional, caller-owned
  size_t input_dim = 0;                      ///< flattened sample width
  ModelConfig config;

  /// Precise per-row quantization of every Dense and Conv2D weight matrix
  /// at the bundle's precision, built at registration when
  /// config.precision is a quantized tier (so batcher threads read it
  /// lock-free) and null otherwise. The batcher sets it on its context as
  /// is: null runs the f64 path.
  std::unique_ptr<nn::QuantizedWeightCache> quantized_weights;

  /// This model's serving counters + latency histograms, owned by the
  /// registry's MetricsRegistry (stable pointer, lives as long as the
  /// registry). Batcher threads commit one coherent delta per batch.
  ModelMetrics* metrics = nullptr;

  /// Coherent snapshot of the counters: the accounting invariant closes in
  /// every snapshot, and histograms are exact once traffic quiesces.
  [[nodiscard]] ModelStats stats() const;
};

/// Growable table of model bundles shared by every batcher thread of one
/// server. Bundles are heap-pinned, so a pointer returned by get() stays
/// valid for the registry's lifetime even while add() grows the table.
class ModelRegistry {
 public:
  /// Registers a bundle and returns its model id (dense, starting at 0).
  /// Validates the config and rejects duplicate names. `model` must outlive
  /// the registry.
  size_t add(std::string name, nn::Sequential* model, size_t input_dim,
             const ModelConfig& config, const data::MinMaxNormalizer* normalizer);

  /// The bundle for `id`, or nullptr when out of range. The pointer is
  /// stable; the bundle itself is immutable apart from its counters.
  [[nodiscard]] ModelBundle* get(size_t id) const;

  /// The id registered under `name`; throws std::out_of_range when unknown.
  [[nodiscard]] size_t id_of(const std::string& name) const;

  /// Number of registered models.
  [[nodiscard]] size_t size() const;

  /// The batch-formation policy of model `id`, read when a batch opens for
  /// it (RequestQueue::pop_batch's lookup, called under the queue lock). An
  /// unregistered id gets the default one-request, no-wait policy, so a
  /// mis-addressed batch is rejected at once instead of waiting a window.
  [[nodiscard]] PopPolicy policy(size_t id) const;

  /// The metrics hub holding every bundle's counter block (and, on a
  /// server, the queue-depth gauges). Scrape through
  /// to_prometheus()/to_json(); safe while serving.
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ModelBundle>> bundles_;
  MetricsRegistry metrics_;
};

}  // namespace dlpic::serve
