#pragma once
/// \file inference_server.hpp
/// Deadline-aware multi-model inference server: N named model bundles, one
/// priority-laned request queue, and a pool of batcher threads each running
/// on its own ExecutionContext. This is the deployment shape of the DL field
/// solver — many concurrent clients submit single-sample field-solve
/// requests (tagged interactive or bulk, optionally with a deadline) and the
/// server amortizes them into single-model batched forward passes,
/// interactive lane first.
///
/// Threading model: parameters live in the shared models; all per-call
/// activation state lives in each worker's private ExecutionContext, so the
/// workers never synchronize on a model. Every worker serves every model —
/// the pool is shared, not partitioned. Two scaling modes compose:
///   - few workers x parallel kernels (context_worker_cap = 0): each batch
///     fans its GEMMs out across the process-wide pool;
///   - many workers x serial contexts (context_worker_cap = 1): independent
///     batches run truly concurrently, one core each.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/normalizer.hpp"
#include "nn/execution_context.hpp"
#include "nn/sequential.hpp"
#include "serve/dynamic_batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/request_queue.hpp"
#include "serve/trace.hpp"

namespace dlpic::serve {

/// Server tuning knobs: worker topology and backpressure, plus the default
/// batching policy of models added without their own ModelConfig. Every
/// other per-model knob (padding, precision) lives only in ModelConfig.
struct ServerConfig {
  /// Default ModelConfig::max_batch for models added without a config.
  size_t max_batch = 16;
  /// Default ModelConfig::max_wait_us for models added without a config.
  uint32_t max_wait_us = 200;
  /// Batcher threads, each with a private ExecutionContext. Must be >= 1.
  size_t worker_threads = 1;
  /// Worker cap of each batcher's context: 0 inherits the global width
  /// (parallel kernels), 1 pins each batch serial (thread-level scaling).
  size_t context_worker_cap = 0;
  /// Bounded queue capacity across all lanes; submit() blocks while full.
  /// 0 = unbounded.
  size_t queue_capacity = 0;
  /// Trace ring slots shared by every traced request (see serve/trace.hpp).
  /// 0 (default) disables tracing entirely: SubmitOptions::trace is ignored
  /// and nothing is allocated.
  size_t trace_capacity = 0;

  /// The per-model policy implied by the batching fields above.
  [[nodiscard]] ModelConfig model_defaults() const {
    ModelConfig config;
    config.max_batch = max_batch;
    config.max_wait_us = max_wait_us;
    return config;
  }
};

/// Per-request scheduling options accepted by submit(): `model_id`
/// (add_model's return value), `priority` (interactive drains before bulk)
/// and `deadline` (absolute expiry — if inference has not started by then,
/// the future fails with DeadlineExpired and no forward pass is spent on
/// it). Same shape the queue consumes; the server only adds validation.
using SubmitOptions = RequestOptions;

/// Owns the serving stack: priority-laned request queue + batcher threads +
/// per-thread contexts over N shared models. One lifecycle: construction
/// starts the workers; destruction (or shutdown()) closes the queue, drains
/// every in-flight request and joins the workers — submitted futures are
/// always fulfilled. There is no restart: a new run is a new server, with
/// fresh counters and trace ring. Models may be registered before traffic
/// or while the server is running (add_model), and each keeps its own
/// batching policy and per-lane stats; a batch never mixes models. A
/// batcher reads a model's policy when it opens a batch for it, so a model
/// registered while the batchers wait (including the constructor's own
/// model) batches under its own policy from its first request.
///
/// The kernel backend active on the constructing thread (the DLPIC_BACKEND
/// default unless a nn::ScopedBackend override is in scope) is captured
/// into every worker context, so batched results stay bitwise identical to
/// the caller's own single-sample inference regardless of which thread
/// serves the batch.
///
/// Registered models must not be trained or otherwise mutated (or moved)
/// while the server is running; inference itself keeps all mutable state in
/// the per-worker contexts.
class InferenceServer {
 public:
  /// Starts an empty multi-model server; register models with add_model().
  explicit InferenceServer(const ServerConfig& config = {});

  /// Single-model convenience: serves `model` (caller-owned, must outlive
  /// the server) as model id 0 under the name "default", with the config's
  /// default batching policy. `input_dim` is the flattened sample width; a
  /// non-null `normalizer` (also caller-owned) is applied to every batch
  /// before inference.
  InferenceServer(nn::Sequential& model, size_t input_dim,
                  const ServerConfig& config = {},
                  const data::MinMaxNormalizer* normalizer = nullptr);

  /// Graceful shutdown (see shutdown()).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Registers a named model bundle and returns its model id for
  /// SubmitOptions::model_id. Safe while serving: the model becomes
  /// servable as soon as this returns. `model` (and `normalizer`, when
  /// given) are caller-owned and must outlive the server. Throws
  /// std::invalid_argument on duplicate names, invalid configs, or a
  /// model/batch-shape mismatch, and std::runtime_error after shutdown.
  size_t add_model(std::string name, nn::Sequential& model, size_t input_dim,
                   const ModelConfig& config,
                   const data::MinMaxNormalizer* normalizer = nullptr);

  /// add_model with the server config's default batching policy.
  size_t add_model(std::string name, nn::Sequential& model, size_t input_dim,
                   const data::MinMaxNormalizer* normalizer = nullptr);

  /// Enqueues one flattened sample for `options.model_id` on
  /// `options.priority`'s lane and returns the future of its output row.
  /// Throws std::invalid_argument on an unknown model or a size mismatch
  /// and std::runtime_error after shutdown. Blocks while a bounded queue is
  /// full (backpressure). A request whose deadline passes before inference
  /// starts resolves to a DeadlineExpired exception without spending a
  /// forward pass.
  std::future<std::vector<double>> submit(std::vector<double> input,
                                          const SubmitOptions& options);

  /// submit() to model id 0 on the bulk lane with no deadline (the
  /// single-model API).
  std::future<std::vector<double>> submit(std::vector<double> input);

  /// Closes the queue, serves every request already submitted, then joins
  /// the workers. Idempotent and thread-safe; the destructor calls it.
  void shutdown();

  /// True until shutdown() first runs. A shut-down server stays down; a
  /// new run is a new server.
  [[nodiscard]] bool running() const;

  /// Counters summed over every model's block (MetricsRegistry::totals)
  /// plus the drained count. Safe while serving; takes no server lock.
  [[nodiscard]] ServerStats stats() const;

  /// Per-model, per-lane counters for one registered model (safe while
  /// serving). Throws std::out_of_range on an unknown id.
  [[nodiscard]] ModelStats model_stats(size_t model_id) const;

  /// The id registered under `name`; throws std::out_of_range when unknown.
  [[nodiscard]] size_t model_id(const std::string& name) const;

  /// Number of registered models.
  [[nodiscard]] size_t model_count() const { return registry_.size(); }

  /// Requests currently queued across all lanes (racy snapshot) — the
  /// load signal net::Router's least-loaded replica pick reads.
  [[nodiscard]] size_t queue_depth() const { return queue_.size(); }

  /// Batcher threads still alive. Equals config().worker_threads in normal
  /// operation; drops when a worker dies to an injected (or real) fault —
  /// the survivors keep draining the queue, and shutdown() fails whatever
  /// the pool could no longer serve.
  [[nodiscard]] size_t live_workers() const {
    return live_workers_.load(std::memory_order_relaxed);
  }

  /// The metrics hub: per-model counter blocks and queue-depth gauges.
  /// Safe to scrape while serving.
  [[nodiscard]] MetricsRegistry& metrics() { return registry_.metrics(); }
  [[nodiscard]] const MetricsRegistry& metrics() const { return registry_.metrics(); }

  /// Prometheus text exposition of the full metrics surface (convenience
  /// for metrics().to_prometheus()). Safe while serving.
  [[nodiscard]] std::string metrics_prometheus() const {
    return registry_.metrics().to_prometheus();
  }

  /// JSON snapshot of the full metrics surface. Safe while serving.
  [[nodiscard]] std::string metrics_json() const {
    return registry_.metrics().to_json();
  }

  /// The server's trace ring (disabled unless ServerConfig::trace_capacity
  /// is non-zero). Request traces are claimed by submit() when
  /// SubmitOptions::trace is set.
  [[nodiscard]] const TraceRing& trace_ring() const { return trace_ring_; }

  /// Completed trace records currently held by the ring. Safe while
  /// serving; in-flight requests are skipped.
  [[nodiscard]] std::vector<TraceRecord> trace_snapshot() const {
    return trace_ring_.snapshot();
  }

  /// The configuration the server was started with.
  [[nodiscard]] const ServerConfig& config() const { return config_; }

 private:
  void start_workers();
  void drain_leftovers_locked();  // pre: shutdown_mutex_ held, workers joined
  void register_gauges();

  ServerConfig config_;
  ModelRegistry registry_;
  RequestQueue queue_;
  TraceRing trace_ring_;
  std::vector<std::unique_ptr<nn::ExecutionContext>> contexts_;
  std::vector<std::unique_ptr<DynamicBatcher>> batchers_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> live_workers_{0};
  std::atomic<size_t> drained_{0};   // leftover requests failed at shutdown
  std::atomic<uint64_t> trace_seq_{0};  // ids traced submissions
  mutable std::mutex shutdown_mutex_;
  bool stopped_ = false;
};

}  // namespace dlpic::serve
