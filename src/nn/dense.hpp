#pragma once
/// \file dense.hpp
/// Fully connected layer: y = x W^T + b with W [out, in], b [out].
/// Forward/backward are GEMMs over the batch — the hot path of MLP training
/// and of the DL-PIC field solve.
///
/// The weight is held in one of two orders, in one buffer:
///  - output-major, W [out, in]: every layer built in memory (the
///    constructors, so training and DlFieldSolver's constructor) and every
///    layer read from a v1 model file. A small-batch forward reads W's rows
///    in place (KernelBackend::gemm_nt_block).
///  - input-major, W^T [in, out]: every layer Dense::load reads from a v2
///    model file, hence Sequential::load_file, DlFieldSolver::load and
///    every served bundle. An inference forward at batch <= 32 reads one
///    contiguous weight row per nonzero input (gemm_nn_block), which is
///    what a sparse phase-space histogram needs.
/// Both orders give bitwise the same forward. weight(), params(),
/// zero_grad(), a training forward and backward put an input-major layer
/// back output-major, in place (the buffer, and so its huge-page advice,
/// stays); nothing converts the other way. Model format v2 stores W^T, so
/// loading is one straight read and save() of an input-major layer one
/// straight write; an output-major layer streams its transpose through a
/// bounded buffer. v1 files (W) still load, as output-major layers.

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
    to_output_major();
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
  /// Writes W^T (model format v2) whatever the layer's order.
  void save(util::BinaryWriter& w) const override;
  /// Reads a layer written in model format `format`: W^T from v2, kept
  /// input-major; W from v1, kept output-major.
  static std::unique_ptr<Dense> load(util::BinaryReader& r,
                                     uint32_t format = kModelFormat);

  [[nodiscard]] size_t in_features() const { return in_; }
  [[nodiscard]] size_t out_features() const { return out_; }
  /// The weight [out, in]; an input-major layer is first put back
  /// output-major, in place.
  [[nodiscard]] Tensor& weight() {
    to_output_major();
    return weight_;
  }
  [[nodiscard]] Tensor& bias() { return bias_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }
  /// True while the weight is held as W^T [in, out] (a loaded layer).
  [[nodiscard]] bool input_major() const { return input_major_; }
  /// The weight as held, without conversion: [out, in], or [in, out] while
  /// input_major().
  [[nodiscard]] const Tensor& stored_weight() const { return weight_; }

 private:
  /// Wraps parameters already read and checked by load(): W [out, in], or
  /// W^T [in, out] when `input_major`.
  Dense(Tensor weight, Tensor bias, bool input_major);

  /// Transposes an input-major weight to [out, in] in its own buffer.
  void to_output_major();

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
  Tensor weight_, weight_grad_;  // [out, in] (weight_ [in, out] while input_major_);
  Tensor bias_, bias_grad_;      // [out]     the gradients stay empty until ensure_grads()
  bool input_major_ = false;
  // No per-call state: the cached input lives in the execution context, so
  // one layer instance can serve concurrent forward passes on distinct
  // contexts.
};

}  // namespace dlpic::nn
