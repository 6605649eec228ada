#pragma once
/// \file activation.hpp
/// Elementwise activation layers: ReLU (the paper's hidden activation),
/// LeakyReLU and Tanh (extensions for architecture ablations).

#include "nn/layer.hpp"

namespace dlpic::nn {

/// max(0, x).
class ReLU final : public Layer {
 public:
  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) override;
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  [[nodiscard]] std::string type() const override { return "relu"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override {
    return input_shape;
  }
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<ReLU> load(util::BinaryReader& r);
};

/// x > 0 ? x : alpha*x.
class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(double alpha = 0.01) : alpha_(alpha) {}
  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) override;
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  [[nodiscard]] std::string type() const override { return "leaky_relu"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override {
    return input_shape;
  }
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<LeakyReLU> load(util::BinaryReader& r);
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  double alpha_;
};

/// tanh(x).
class Tanh final : public Layer {
 public:
  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) override;
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  [[nodiscard]] std::string type() const override { return "tanh"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override {
    return input_shape;
  }
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<Tanh> load(util::BinaryReader& r);
};

}  // namespace dlpic::nn
