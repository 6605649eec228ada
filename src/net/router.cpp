#include "net/router.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dlpic::net {

Router::Router(const RouterConfig& config) : config_(config) {
  if (config.replicas == 0)
    throw std::invalid_argument("Router: replicas must be >= 1");
  replicas_.reserve(config.replicas);
  for (size_t i = 0; i < config.replicas; ++i)
    replicas_.push_back(std::make_unique<serve::InferenceServer>(config.server));
}

Router::~Router() { shutdown(); }

void Router::add_model(std::string name, nn::Sequential& model, size_t input_dim,
                       const serve::ModelConfig& config,
                       const data::MinMaxNormalizer* normalizer) {
  // Every replica hosts the same names, so a duplicate (or any other
  // validation failure) throws at replica 0, before anything is registered.
  auto placement = std::make_unique<Placement>();
  for (auto& replica : replicas_)
    placement->model_ids.push_back(
        replica->add_model(name, model, input_dim, config, normalizer));
  std::lock_guard<std::mutex> lock(models_mutex_);
  models_.emplace(std::move(name), std::move(placement));
}

void Router::add_model(std::string name, nn::Sequential& model, size_t input_dim,
                       const data::MinMaxNormalizer* normalizer) {
  add_model(std::move(name), model, input_dim, config_.server.model_defaults(), normalizer);
}

std::future<std::vector<double>> Router::submit(
    const std::string& model, std::vector<double> input, serve::Priority priority,
    std::chrono::steady_clock::time_point deadline) {
  const Placement* placement;
  {
    std::lock_guard<std::mutex> lock(models_mutex_);
    auto it = models_.find(model);
    if (it == models_.end())
      throw std::invalid_argument("Router: unknown model '" + model + "'");
    placement = it->second.get();  // placements are pinned; safe to use unlocked
  }
  // Least-loaded pick: smallest replica queue depth wins; ties rotate via
  // the round-robin cursor so an idle fleet still spreads load.
  const size_t n = replicas_.size();
  const size_t rotate = placement->next.fetch_add(1, std::memory_order_relaxed);
  size_t best = rotate % n;
  size_t best_depth = std::numeric_limits<size_t>::max();
  for (size_t k = 0; k < n; ++k) {
    const size_t r = (rotate + k) % n;
    const size_t depth = replicas_[r]->queue_depth();
    if (depth < best_depth) {
      best_depth = depth;
      best = r;
    }
  }
  serve::SubmitOptions options;
  options.model_id = placement->model_ids[best];
  options.priority = priority;
  options.deadline = deadline;
  return replicas_[best]->submit(std::move(input), options);
}

void Router::shutdown() {
  for (auto& replica : replicas_) replica->shutdown();
}

RouterStats Router::stats() const {
  RouterStats stats;
  serve::ServerStats& total = stats.total;
  for (const auto& replica : replicas_) {
    const serve::ServerStats s = replica->stats();
    total.requests += s.requests;
    total.served += s.served;
    total.batches += s.batches;
    total.max_batch_observed = std::max(total.max_batch_observed, s.max_batch_observed);
    total.expired += s.expired;
    total.rejected += s.rejected;
    total.forward_errors += s.forward_errors;
    total.drained += s.drained;
  }
  return stats;
}

}  // namespace dlpic::net
