#pragma once
/// \file dense.hpp
/// Fully connected layer: y = x W^T + b with W [out, in], b [out].
/// Forward/backward are GEMMs over the batch — the hot path of MLP training.

#include "math/rng.hpp"
#include "nn/layer.hpp"

namespace dlpic::nn {

/// Dense (fully connected) layer.
class Dense final : public Layer {
 public:
  /// He-initialized weights (suitable for the ReLU nets of the paper);
  /// pass `linear_output = true` for Glorot init on regression heads.
  Dense(size_t in_features, size_t out_features, math::Rng& rng,
        bool linear_output = false);

  /// Zero-weight constructor, for models whose weights are set by hand.
  Dense(size_t in_features, size_t out_features);

  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) override;
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::vector<Param> params() override;
  void zero_grad() override {
    ensure_grads();
    weight_grad_.zero();
    bias_grad_.zero();
  }
  [[nodiscard]] size_t parameter_count() const override {
    return weight_.size() + bias_.size();
  }
  [[nodiscard]] std::string type() const override { return "dense"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override;
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<Dense> load(util::BinaryReader& r);

  [[nodiscard]] size_t in_features() const { return in_; }
  [[nodiscard]] size_t out_features() const { return out_; }
  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] const Tensor& weight() const { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }

 private:
  /// Wraps parameters already read and checked by load().
  Dense(Tensor weight, Tensor bias);

  /// Sizes the gradients to the values on the first training touch
  /// (params(), zero_grad(), backward()), so a layer that only runs
  /// inference — a loaded bundle — holds no gradient storage.
  void ensure_grads();

  /// The quantized inference path (the context holds a weight cache; Code
  /// = int8_t / int16_t per the cache's precision): fast-quantize the
  /// activation rows, run the integer GEMM against the cached weight codes
  /// into `out`. The caller adds the f64 bias afterwards.
  template <typename Code>
  void forward_quantized(ExecutionContext& ctx, const Tensor& input, Tensor& out);

  size_t in_, out_;
  Tensor weight_, weight_grad_;  // [out, in]; the gradients stay empty
  Tensor bias_, bias_grad_;      // [out]     until ensure_grads()
  // No per-call state: the cached input lives in the execution context, so
  // one layer instance can serve concurrent forward passes on distinct
  // contexts.
};

}  // namespace dlpic::nn
