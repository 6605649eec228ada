#include "serve/inference_server.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/fault_injection.hpp"
#include "util/log.hpp"

namespace dlpic::serve {

namespace {
ServerConfig validated(ServerConfig config) {
  if (config.max_batch == 0)
    throw std::invalid_argument("InferenceServer: max_batch must be >= 1");
  if (config.worker_threads == 0)
    throw std::invalid_argument("InferenceServer: worker_threads must be >= 1");
  return config;
}
}  // namespace

InferenceServer::InferenceServer(const ServerConfig& config)
    : config_(validated(config)),
      queue_(config_.queue_capacity),
      trace_ring_(config_.trace_capacity) {
  register_gauges();
  start_workers();
}

InferenceServer::InferenceServer(nn::Sequential& model, size_t input_dim,
                                 const ServerConfig& config,
                                 const data::MinMaxNormalizer* normalizer)
    : InferenceServer(config) {
  add_model("default", model, input_dim, config_.model_defaults(), normalizer);
}

void InferenceServer::register_gauges() {
  // Callback gauges: evaluated at scrape time, so exposition always shows
  // live queue depths / worker liveness without any hot-path bookkeeping.
  MetricsRegistry& metrics = registry_.metrics();
  metrics.register_gauge("dlpic_queue_depth", "lane",
                         lane_name(static_cast<size_t>(Priority::kInteractive)),
                         [this] { return queue_.size(Priority::kInteractive); });
  metrics.register_gauge("dlpic_queue_depth", "lane",
                         lane_name(static_cast<size_t>(Priority::kBulk)),
                         [this] { return queue_.size(Priority::kBulk); });
  metrics.register_gauge("dlpic_live_workers", "", "", [this] { return live_workers(); });
  metrics.register_gauge("dlpic_requests_drained_total", "", "", [this] {
    return drained_.load(std::memory_order_relaxed);
  });
  metrics.register_gauge("dlpic_traces_dropped_total", "", "", [this] {
    return static_cast<size_t>(trace_ring_.dropped());
  });
}

void InferenceServer::start_workers() {
  contexts_.reserve(config_.worker_threads);
  batchers_.reserve(config_.worker_threads);
  workers_.reserve(config_.worker_threads);
  // Pin each worker context to the backend active on the CONSTRUCTING
  // thread: thread-local backend selection (ScopedBackend) does not reach
  // the batcher threads, and the batched == single-sample bitwise guarantee
  // requires the server to compute with the same kernels as the caller.
  const nn::KernelBackend* backend = &nn::active_backend();
  for (size_t w = 0; w < config_.worker_threads; ++w) {
    contexts_.push_back(
        std::make_unique<nn::ExecutionContext>(config_.context_worker_cap, backend));
    batchers_.push_back(std::make_unique<DynamicBatcher>(registry_, *contexts_.back()));
  }
  try {
    for (size_t w = 0; w < config_.worker_threads; ++w) {
      DynamicBatcher* batcher = batchers_[w].get();
      live_workers_.fetch_add(1, std::memory_order_relaxed);
      try {
        workers_.emplace_back([this, batcher, w] {
          // serve_once returns 0 only when the queue is closed and drained.
          // Any exception that escapes it — an injected worker-death or
          // pop fault, or a real bug — kills THIS worker only: deaths are
          // batch-atomic (every fault point fires before a request is in
          // hand or delivers to every promise of the batch), survivors keep
          // draining, and shutdown() fails whatever is left. No promise is
          // ever lost to a dead worker.
          try {
            for (;;) {
              util::fault_point(util::FaultSite::kServerWorker);
              if (batcher->serve_once(queue_) == 0) break;
            }
          } catch (const std::exception& e) {
            DLPIC_LOG_WARN("InferenceServer: worker %zu died: %s", w, e.what());
          } catch (...) {
            DLPIC_LOG_WARN("InferenceServer: worker %zu died to a non-std exception", w);
          }
          live_workers_.fetch_sub(1, std::memory_order_relaxed);
        });
      } catch (...) {
        live_workers_.fetch_sub(1, std::memory_order_relaxed);
        throw;
      }
    }
  } catch (...) {
    // A failed thread spawn (e.g. EAGAIN) must not leave joinable threads
    // behind: the constructor body threw, so ~InferenceServer never runs
    // and destroying workers_ would std::terminate. Stop what started and
    // surface the original error.
    queue_.close();
    for (auto& worker : workers_)
      if (worker.joinable()) worker.join();
    throw;
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

size_t InferenceServer::add_model(std::string name, nn::Sequential& model,
                                  size_t input_dim, const ModelConfig& config,
                                  const data::MinMaxNormalizer* normalizer) {
  if (!running()) throw std::runtime_error("InferenceServer::add_model: server is shut down");
  return registry_.add(std::move(name), &model, input_dim, config, normalizer);
}

size_t InferenceServer::add_model(std::string name, nn::Sequential& model,
                                  size_t input_dim,
                                  const data::MinMaxNormalizer* normalizer) {
  return add_model(std::move(name), model, input_dim, config_.model_defaults(), normalizer);
}

std::future<std::vector<double>> InferenceServer::submit(std::vector<double> input,
                                                         const SubmitOptions& options) {
  const ModelBundle* bundle = registry_.get(options.model_id);
  if (bundle == nullptr)
    throw std::invalid_argument("InferenceServer::submit: unknown model id " +
                                std::to_string(options.model_id));
  if (input.size() != bundle->input_dim)
    throw std::invalid_argument("InferenceServer::submit: input size " +
                                std::to_string(input.size()) + " != input dim " +
                                std::to_string(bundle->input_dim) + " of model '" +
                                bundle->name + "'");
  SubmitOptions forwarded = options;
  TraceSlot* claimed = nullptr;
  if (options.trace && forwarded.trace_slot == nullptr && trace_ring_.enabled()) {
    claimed = trace_ring_.try_claim(trace_seq_.fetch_add(1, std::memory_order_relaxed),
                                    options.model_id,
                                    static_cast<uint32_t>(options.priority));
    if (claimed != nullptr) {
      claimed->stamp(TraceStage::kSubmit);
      forwarded.trace_slot = claimed;
    }
  }
  try {
    return queue_.push(std::move(input), forwarded);
  } catch (...) {
    // Never admitted (queue closed, injected push fault, ...): the trace we
    // claimed must still complete so the slot can be reclaimed.
    if (claimed != nullptr) claimed->finish(TraceOutcome::kRejected);
    throw;
  }
}

std::future<std::vector<double>> InferenceServer::submit(std::vector<double> input) {
  return submit(std::move(input), SubmitOptions{});
}

void InferenceServer::shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (stopped_) return;
  queue_.close();  // wakes every batcher; they drain the queue, then exit
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  drain_leftovers_locked();
  stopped_ = true;
}

void InferenceServer::drain_leftovers_locked() {
  // The workers are joined. The queue is normally empty here, but workers
  // that died mid-run (chaos faults, real bugs) leave requests behind —
  // fail them now so every submitted future resolves. drain() carries no
  // fault-injection point, so this path always makes progress.
  std::vector<Request> leftovers;
  if (queue_.drain(leftovers) == 0) return;
  const auto error = std::make_exception_ptr(std::runtime_error(
      "InferenceServer: request unserved at shutdown (worker pool died)"));
  for (Request& request : leftovers) {
    try {
      request.result.set_exception(error);
    } catch (const std::future_error&) {
    }
    if (request.trace) {
      request.trace->finish(TraceOutcome::kError);
      request.trace = nullptr;
    }
  }
  drained_.fetch_add(leftovers.size(), std::memory_order_relaxed);
  DLPIC_LOG_WARN("InferenceServer: failed %zu unserved requests at shutdown",
                 leftovers.size());
}

bool InferenceServer::running() const {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  return !stopped_;
}

ServerStats InferenceServer::stats() const {
  ServerStats s = registry_.metrics().totals();
  s.drained = drained_.load(std::memory_order_relaxed);
  return s;
}

ModelStats InferenceServer::model_stats(size_t model_id) const {
  const ModelBundle* bundle = registry_.get(model_id);
  if (bundle == nullptr)
    throw std::out_of_range("InferenceServer::model_stats: unknown model id " +
                            std::to_string(model_id));
  return bundle->stats();
}

size_t InferenceServer::model_id(const std::string& name) const {
  return registry_.id_of(name);
}

}  // namespace dlpic::serve
