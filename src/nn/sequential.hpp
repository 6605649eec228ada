#pragma once
/// \file sequential.hpp
/// Sequential container: a stack of layers with chained forward/backward,
/// parameter aggregation and binary save/load. This is the model type used
/// for both the MLP and CNN field solvers.

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace dlpic::nn {

/// Ordered stack of layers.
class Sequential {
 public:
  Sequential() = default;

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  /// Appends a layer (takes ownership); returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  [[nodiscard]] size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(size_t i) const { return *layers_.at(i); }

  /// Forward pass through all layers; returns a reference into the last
  /// layer's workspace slot (valid until that layer runs again on `ctx`).
  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training = false);

  /// Backward pass (call after forward with training = true, same context).
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output);

  /// Inference: forward with training = false.
  Tensor& predict(ExecutionContext& ctx, const Tensor& input) {
    return forward(ctx, input, /*training=*/false);
  }

  /// All learnable parameters, with names "layer<i>.<param>".
  std::vector<Param> params();

  /// Total learnable scalar count (creates no gradient storage).
  [[nodiscard]] size_t parameter_count() const;

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Output shape for a given input shape (validates the whole stack).
  [[nodiscard]] std::vector<size_t> output_shape(std::vector<size_t> input_shape) const;

  /// Serializes the architecture and all weights to `path`, in model
  /// format kModelFormat (v2: dense weights stored as W^T).
  void save(const std::string& path) const;

  /// Reconstructs a model saved with save(): its dense layers hold W^T
  /// (input-major). A v1 file still loads, with output-major dense layers.
  /// Throws on format errors.
  static Sequential load_file(const std::string& path);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace dlpic::nn
