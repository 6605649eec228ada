#pragma once
/// \file maxpool2d.hpp
/// Max pooling over [batch, channels, height, width], used after each
/// convolution block in the paper's CNN architecture.

#include "nn/layer.hpp"

namespace dlpic::nn {

/// Non-overlapping max pooling (kernel == stride); height/width must be
/// divisible by the pool size.
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(size_t pool = 2);

  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) override;
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  [[nodiscard]] std::string type() const override { return "maxpool2d"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override;
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<MaxPool2D> load(util::BinaryReader& r);

  [[nodiscard]] size_t pool() const { return pool_; }

 private:
  size_t pool_;
  // No per-call state: the argmax indices and input shape live in the
  // execution context, so one layer instance can serve concurrent forward
  // passes on distinct contexts.
};

}  // namespace dlpic::nn
