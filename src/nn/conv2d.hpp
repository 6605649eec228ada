#pragma once
/// \file conv2d.hpp
/// 2D convolution over [batch, channels, height, width] tensors,
/// implemented as im2col + GEMM (the standard CPU-efficient lowering).
/// Used by the paper's CNN field solver: blocks of two 3x3 same-padding
/// convolutions followed by max pooling.

#include "math/rng.hpp"
#include "nn/layer.hpp"

namespace dlpic::nn {

/// Convolution hyperparameters.
struct Conv2DConfig {
  size_t in_channels = 1;
  size_t out_channels = 1;
  size_t kernel_h = 3;
  size_t kernel_w = 3;
  size_t stride = 1;
  size_t pad = 1;  ///< symmetric zero padding (pad=1 with 3x3 = "same")
};

/// 2D convolution layer with bias.
class Conv2D final : public Layer {
 public:
  Conv2D(const Conv2DConfig& config, math::Rng& rng);
  explicit Conv2D(const Conv2DConfig& config);  // zero filters

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
  [[nodiscard]] std::string type() const override { return "conv2d"; }
  [[nodiscard]] std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const override;
  void save(util::BinaryWriter& w) const override;
  static std::unique_ptr<Conv2D> load(util::BinaryReader& r);

  [[nodiscard]] const Conv2DConfig& config() const { return cfg_; }
  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] const Tensor& weight() const { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }

 private:
  /// Wraps parameters already read and checked by load().
  Conv2D(const Conv2DConfig& config, Tensor weight, Tensor bias);

  /// Sizes the gradients to the values on the first training touch (see
  /// Dense::ensure_grads).
  void ensure_grads();

  /// Output spatial dims for an input of h x w.
  [[nodiscard]] std::pair<size_t, size_t> out_dims(size_t h, size_t w) const;

  /// Quantized inference path (the context holds a weight cache; Code =
  /// int8_t / int16_t per the cache's precision): fast symmetric
  /// quantization of the whole image (one shared scale per image),
  /// transposed im2col lowering of the CODES — quantized im2col, so the
  /// 9x-duplicating lowering moves code-width bytes, not doubles — then an
  /// integer GEMM against the cached filter codes.
  template <typename Code>
  void forward_quantized(ExecutionContext& ctx, const Tensor& input, Tensor& out,
                         size_t h, size_t w, size_t oh, size_t ow);

  Conv2DConfig cfg_;
  Tensor weight_, weight_grad_;  // [oc, ic*kh*kw]; the gradients stay
  Tensor bias_, bias_grad_;      // [oc]            empty until ensure_grads()
  // No per-call state: the cached input lives in the execution context, so
  // one layer instance can serve concurrent forward passes on distinct
  // contexts.
};

/// Lowers one image [C,H,W] into columns [C*kh*kw, out_h*out_w].
void im2col(const double* img, size_t channels, size_t h, size_t w, size_t kh, size_t kw,
            size_t stride, size_t pad, double* cols);

/// Transposed lowering: [out_h*out_w, C*kh*kw], one k-contiguous row per
/// output pixel. This is the layout the quantized GEMM needs for its B
/// operand; the quantized forward runs the identical traversal over
/// int8/int16 code images (this f64 instantiation is the tested
/// reference for the shared index math).
void im2col_rows(const double* img, size_t channels, size_t h, size_t w, size_t kh,
                 size_t kw, size_t stride, size_t pad, double* rows);

/// Adjoint of im2col: scatters columns back into an image (accumulating).
void col2im(const double* cols, size_t channels, size_t h, size_t w, size_t kh, size_t kw,
            size_t stride, size_t pad, double* img);

}  // namespace dlpic::nn
