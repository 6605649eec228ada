#pragma once
/// \file router.hpp
/// Shards decoded inference requests across N in-process InferenceServer
/// replicas — the scale-out seam between the socket front end and the
/// serving stack. Every replica is a complete deadline-aware multi-model
/// server (own worker pool, own queue, own MetricsRegistry) and hosts every
/// model; the router places each model on all replicas and sends each
/// request to the least-loaded one (queue depth, round-robin tiebreak).
/// Apart from one sum of the replicas' counters (stats()), counters,
/// metrics and traces are read per replica through replica(i).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/normalizer.hpp"
#include "nn/sequential.hpp"
#include "serve/inference_server.hpp"

namespace dlpic::net {

/// Router tuning: replica count and the ServerConfig every replica starts
/// with (worker topology, queue bounds, default batching policy).
struct RouterConfig {
  /// In-process InferenceServer replicas (>= 1).
  size_t replicas = 1;
  /// Configuration applied to every replica.
  serve::ServerConfig server;
};

/// Serving counters summed over every replica.
struct RouterStats {
  serve::ServerStats total;
};

/// Owns N InferenceServer replicas and routes by model name. Thread-safe:
/// submit() may be called from any number of connection handler threads
/// concurrently with add_model().
class Router {
 public:
  explicit Router(const RouterConfig& config = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Registers `model` on every replica. The model (and optional
  /// normalizer) are caller-owned and must outlive the router. Throws
  /// std::invalid_argument on duplicate names or config problems (the
  /// underlying add_model validation); replica 0 rejects those before any
  /// replica registers the model.
  void add_model(std::string name, nn::Sequential& model, size_t input_dim,
                 const serve::ModelConfig& config,
                 const data::MinMaxNormalizer* normalizer = nullptr);

  /// add_model with the replicas' default batching policy.
  void add_model(std::string name, nn::Sequential& model, size_t input_dim,
                 const data::MinMaxNormalizer* normalizer = nullptr);

  /// Routes one request to the least-loaded replica and returns the future
  /// of its output row. Throws std::invalid_argument on an unknown model
  /// name; everything else follows InferenceServer::submit semantics
  /// (backpressure, DeadlineExpired, shutdown errors).
  std::future<std::vector<double>> submit(
      const std::string& model, std::vector<double> input,
      serve::Priority priority = serve::Priority::kBulk,
      std::chrono::steady_clock::time_point deadline = serve::kNoDeadline);

  /// Drains and stops every replica (idempotent; the destructor calls it).
  void shutdown();

  /// Replicas hosted (== the configured count).
  [[nodiscard]] size_t replica_count() const { return replicas_.size(); }

  /// One replica: its stats, metrics and traces.
  [[nodiscard]] serve::InferenceServer& replica(size_t i) { return *replicas_[i]; }

  /// Counters summed over every replica (safe while serving; each replica
  /// contributes one coherent snapshot).
  [[nodiscard]] RouterStats stats() const;

 private:
  /// One model's per-replica ids (index = replica) and its round-robin
  /// tiebreak cursor.
  struct Placement {
    std::vector<size_t> model_ids;
    mutable std::atomic<size_t> next{0};
  };

  RouterConfig config_;
  std::vector<std::unique_ptr<serve::InferenceServer>> replicas_;
  mutable std::mutex models_mutex_;  // guards models_ growth
  std::map<std::string, std::unique_ptr<Placement>> models_;
};

}  // namespace dlpic::net
