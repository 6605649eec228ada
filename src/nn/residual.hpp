#pragma once
/// \file residual.hpp
/// Residual (ResNet-style) block, the architecture the paper's §VII singles
/// out as future work: "the usage of neural networks fit to encode time
/// sequences, such as Residual networks (ResNet), might be a better fit to
/// DL-based PIC methods than MLPs."
///
/// The block computes  y = x + W2·relu(W1·x + b1) + b2  on a fixed width,
/// i.e. a two-layer perceptron with an identity skip connection. Stacking
/// blocks gives the residual MLP built by nn::build_resmlp.

#include "math/rng.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"

namespace dlpic::nn {

/// Width-preserving residual block with one hidden expansion layer.
class ResidualDense final : public Layer {
 public:
  /// `width` is the block's input/output dimension; `hidden` the inner
  /// expansion width (defaults to `width`).
  ResidualDense(size_t width, size_t hidden, math::Rng& rng);
  ResidualDense(size_t width, size_t hidden);  // zero weights

  Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) override;
  Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::vector<Param> params() override;
  void zero_grad() override {
    inner_.zero_grad();
    outer_.zero_grad();
  }
  [[nodiscard]] size_t parameter_count() const override {
    return inner_.parameter_count() + outer_.parameter_count();
  }
  [[nodiscard]] std::string type() const override { return "residual_dense"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override;
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<ResidualDense> load(util::BinaryReader& r,
                                             uint32_t format = kModelFormat);

  [[nodiscard]] size_t width() const { return width_; }
  [[nodiscard]] size_t hidden() const { return hidden_; }
  [[nodiscard]] Dense& inner() { return inner_; }
  [[nodiscard]] const Dense& inner() const { return inner_; }
  [[nodiscard]] Dense& outer() { return outer_; }
  [[nodiscard]] const Dense& outer() const { return outer_; }

 private:
  /// Wraps sub-layers already loaded and shape-checked by load().
  ResidualDense(Dense inner, Dense outer);

  size_t width_, hidden_;
  Dense inner_;  // width -> hidden
  Dense outer_;  // hidden -> width; the pre-activation cache and the skip
                 // input copy live in the context
};

}  // namespace dlpic::nn
