#include "serve/model_registry.hpp"

#include <stdexcept>

namespace dlpic::serve {

ModelStats ModelBundle::stats() const {
  ModelStats s = metrics != nullptr ? metrics->snapshot() : ModelStats{};
  s.name = name;
  return s;
}

size_t ModelRegistry::add(std::string name, nn::Sequential* model, size_t input_dim,
                          const ModelConfig& config,
                          const data::MinMaxNormalizer* normalizer) {
  if (model == nullptr) throw std::invalid_argument("ModelRegistry: model must be non-null");
  if (name.empty()) throw std::invalid_argument("ModelRegistry: model name must be non-empty");
  if (input_dim == 0) throw std::invalid_argument("ModelRegistry: input_dim must be >= 1");
  if (config.max_batch == 0)
    throw std::invalid_argument("ModelRegistry: max_batch must be >= 1 (got 0) for model '" +
                                name + "'");
  if (config.max_wait_us > kMaxWaitUs)
    throw std::invalid_argument(
        "ModelRegistry: max_wait_us " + std::to_string(config.max_wait_us) +
        " exceeds the " + std::to_string(kMaxWaitUs) +
        " us bound for model '" + name +
        "' — was a negative value converted to the unsigned field?");
  if (config.pad_to_batch != 0 && config.pad_to_batch < config.max_batch)
    throw std::invalid_argument("ModelRegistry: pad_to_batch " +
                                std::to_string(config.pad_to_batch) + " must be >= max_batch " +
                                std::to_string(config.max_batch) + " for model '" + name + "'");
  // Validates the model/batch-shape combination up front instead of failing
  // inside a worker thread on the first request.
  (void)model->output_shape({config.max_batch, input_dim});
  // For quantized lanes, also reject unquantizable layers and GEMM-depth
  // violations here — with the model and layer named — instead of throwing
  // mid-batch on the first forward pass.
  nn::validate_quantizable(*model, config.precision, name);

  auto bundle = std::make_unique<ModelBundle>();
  bundle->name = std::move(name);
  bundle->model = model;
  bundle->normalizer = normalizer;
  bundle->input_dim = input_dim;
  bundle->config = config;
  // Quantize the static weights once, BEFORE publishing the bundle, so the
  // cache is immutable while batcher threads read it (no locking needed on
  // the serving path).
  if (nn::is_quantized(config.precision))
    bundle->quantized_weights =
        std::make_unique<nn::QuantizedWeightCache>(*model, config.precision);

  std::lock_guard<std::mutex> lock(mutex_);
  if (bundles_.size() >= kMaxModels)
    throw std::invalid_argument("ModelRegistry: model table is full (kMaxModels)");
  for (const auto& existing : bundles_)
    if (existing->name == bundle->name)
      throw std::invalid_argument("ModelRegistry: duplicate model name '" + bundle->name +
                                  "'");
  // The metrics block is created last, after every validation that can
  // throw, so metrics model ids stay dense and aligned with bundle ids.
  bundle->metrics = metrics_.add_model(bundle->name);
  bundles_.push_back(std::move(bundle));
  return bundles_.size() - 1;
}

ModelBundle* ModelRegistry::get(size_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return id < bundles_.size() ? bundles_[id].get() : nullptr;
}

size_t ModelRegistry::id_of(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < bundles_.size(); ++i)
    if (bundles_[i]->name == name) return i;
  throw std::out_of_range("ModelRegistry: unknown model name '" + name + "'");
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bundles_.size();
}

PopPolicy ModelRegistry::policy(size_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= bundles_.size()) return PopPolicy{};
  const ModelConfig& config = bundles_[id]->config;
  return PopPolicy{config.max_batch, std::chrono::microseconds(config.max_wait_us)};
}

}  // namespace dlpic::serve
