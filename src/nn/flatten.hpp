#pragma once
/// \file flatten.hpp
/// Flattens [batch, ...] to [batch, features]; bridges the convolutional
/// blocks and the fully connected head of the CNN.

#include "nn/layer.hpp"

namespace dlpic::nn {

/// Shape adapter with no parameters.
class Flatten final : public Layer {
 public:
  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) override;
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  [[nodiscard]] std::string type() const override { return "flatten"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override;
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<Flatten> load(util::BinaryReader& r);
  // No per-call state: the input shape lives in the execution context.
};

/// Reshapes [batch, c*h*w] to [batch, c, h, w]; the input adapter placed at
/// the front of the CNN so that both MLP and CNN consume flat dataset rows.
class Reshape4 final : public Layer {
 public:
  Reshape4(size_t channels, size_t height, size_t width);

  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) override;
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  [[nodiscard]] std::string type() const override { return "reshape4"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override;
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<Reshape4> load(util::BinaryReader& r);

 private:
  size_t c_, h_, w_;
};

}  // namespace dlpic::nn
