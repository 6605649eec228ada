#include "nn/dense.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "math/linalg.hpp"
#include "nn/init.hpp"
#include "nn/quantize.hpp"
#include "util/parallel.hpp"

namespace dlpic::nn {

namespace {
// Workspace slot ids.
constexpr int kSlotInput = 0;
constexpr int kSlotOut = 1;
constexpr int kSlotGradIn = 2;
// Quantized-path staging (grow-only scratch; see quantize.hpp). The code
// slot is per code width; the scale slot is fully rewritten each call.
constexpr int kSlotQIn = 3;       // quantized activation rows
constexpr int kSlotQInScale = 4;  // per-row activation scales
}  // namespace

Dense::Dense(size_t in_features, size_t out_features, math::Rng& rng, bool linear_output)
    : Dense(in_features, out_features) {
  if (linear_output)
    init_glorot_uniform(weight_, in_, out_, rng);
  else
    init_he_normal(weight_, in_, rng);
  init_constant(bias_, 0.0);
}

Dense::Dense(size_t in_features, size_t out_features)
    : Dense(Tensor({out_features, in_features}), Tensor({out_features}), false) {}

Dense::Dense(Tensor weight, Tensor bias, bool input_major)
    : in_(weight.dim(input_major ? 0 : 1)), out_(weight.dim(input_major ? 1 : 0)),
      weight_(std::move(weight)), bias_(std::move(bias)), input_major_(input_major) {
  if (in_ == 0 || out_ == 0) throw std::invalid_argument("Dense: zero-sized layer");
}

void Dense::to_output_major() {
  if (!input_major_) return;
  // Cycle-following transpose of [in, out] into [out, in]: the element at
  // i = r * out + c belongs at c * in + r = i * in mod (n - 1). A bitmap
  // (1/64 of the weight) marks the entries already placed.
  const size_t n = weight_.size();
  double* w = weight_.data();
  std::vector<bool> placed(n, false);
  for (size_t start = 1; start + 1 < n; ++start) {
    if (placed[start]) continue;
    double carried = w[start];
    size_t at = start;
    do {
      at = at * in_ % (n - 1);
      std::swap(carried, w[at]);
      placed[at] = true;
    } while (at != start);
  }
  weight_.reshape({out_, in_});
  input_major_ = false;
}

void Dense::ensure_grads() {
  if (!weight_grad_.empty()) return;
  weight_grad_ = Tensor(weight_.shape());
  bias_grad_ = Tensor(bias_.shape());
}

Tensor& Dense::forward(ExecutionContext& ctx, const Tensor& input, bool training) {
  if (input.rank() != 2 || input.dim(1) != in_)
    throw std::invalid_argument("Dense::forward: expected [batch, " + std::to_string(in_) +
                                "], got " + input.shape_string());
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  const KernelBackend* be = &ctx.resolved_backend();
  const size_t batch = input.dim(0);
  Tensor& out = ctx.workspace().tensor(this, kSlotOut, {batch, out_});
  if (training) to_output_major();

  if (const QuantizedWeightCache* cache = ctx.quantized_weights()) {
    if (training)
      throw std::invalid_argument(
          std::string("Dense::forward: ") + precision_name(cache->precision()) +
          " precision is inference-only (train at kF64)");
    if (cache->precision() == Precision::kInt8)
      forward_quantized<int8_t>(ctx, input, out);
    else
      forward_quantized<int16_t>(ctx, input, out);
  } else {
    // Training caches the input for backward; inference reads it in place.
    const double* x = input.data();
    if (training) {
      Tensor& xc = ctx.workspace().tensor(this, kSlotInput, {batch, in_});
      detail::parallel_copy(input.data(), xc.data(), input.size());
      x = xc.data();
    }
    // out[b,o] = sum_i x[b,i] W[o,i]  ->  X (batch x in) * W^T (in x out),
    // with W^T held as is (input-major) or read through W's rows.
    if (input_major_)
      math::gemm(false, false, batch, out_, in_, 1.0, x, in_, weight_.data(), out_, 0.0,
                 out.data(), out_);
    else
      math::gemm(false, true, batch, out_, in_, 1.0, x, in_, weight_.data(), in_, 0.0,
                 out.data(), out_);
  }
  // An inference forward leaves no input behind, so a backward after it
  // throws instead of reading an older batch (the rank-0 shape keeps the
  // storage: Tensor::resize never shrinks capacity).
  if (!training) ctx.workspace().tensor(this, kSlotInput, {});
  const double* bias = bias_.data();
  util::parallel_for_chunks(
      0, batch,
      [&](size_t lo, size_t hi) {
        be->add_bias_rows(hi - lo, out_, bias, out.data() + lo * out_);
      },
      detail::kElemGrain / std::max<size_t>(1, out_));
  return out;
}

template <typename Code>
void Dense::forward_quantized(ExecutionContext& ctx, const Tensor& input, Tensor& out) {
  const size_t batch = input.dim(0);
  const QuantizedMatrix<Code>& wq = ctx.quantized_weights()->weights<Code>(*this, out_, in_);
  // Fast per-row quantization of the activations into grow-only scratch —
  // the steady-state batch loop allocates nothing. Each row's codes depend
  // only on that row, so batching/padding cannot change any sample's result.
  Workspace& ws = ctx.workspace();
  std::vector<Code>& xq = ws.scratch<Code>(this, kSlotQIn, batch * in_);
  std::vector<double>& xs = ws.scratch(this, kSlotQInScale, batch);
  quantize_rows_fast(input.data(), batch, in_, xq.data(), xs.data());
  // out[b,o] = sx[b] * sw[o] * sum_i qx[b,i] qw[o,i] — exact integer sums,
  // so the result is bitwise invariant across backends and worker counts.
  quantized_gemm(batch, out_, in_, xq.data(), xs.data(), wq.q.data(), wq.scales.data(),
                 out.data(), out_);
}

Tensor& Dense::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  // The cached input in the context is the only forward state (layers keep
  // no per-call members, so one model may serve many contexts).
  Tensor& xc = ctx.workspace().peek(this, kSlotInput);
  if (xc.rank() != 2 || xc.dim(1) != in_)
    throw std::runtime_error("Dense::backward without a training forward");
  const size_t batch = xc.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch || grad_output.dim(1) != out_)
    throw std::invalid_argument("Dense::backward: grad shape mismatch " +
                                grad_output.shape_string());
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  to_output_major();
  ensure_grads();

  // dW[o,i] += sum_b dY[b,o] X[b,i]  ->  dY^T (out x batch) * X (batch x in).
  // Each dW tile is owned by one GEMM task with a fixed k-order, so the
  // accumulation is bitwise identical for every worker count.
  math::gemm(true, false, out_, in_, batch, 1.0, grad_output.data(), out_, xc.data(), in_,
             1.0, weight_grad_.data(), in_);
  // db[o] += sum_b dY[b,o]: parallel over outputs, fixed batch order per o.
  double* bg = bias_grad_.data();
  util::parallel_for_chunks(
      0, out_,
      [&](size_t lo, size_t hi) {
        for (size_t o = lo; o < hi; ++o) {
          double acc = 0.0;
          for (size_t b = 0; b < batch; ++b) acc += grad_output.data()[b * out_ + o];
          bg[o] += acc;
        }
      },
      detail::kElemGrain / std::max<size_t>(1, batch));
  // dX = dY (batch x out) * W (out x in).
  Tensor& grad_in = ctx.workspace().tensor(this, kSlotGradIn, {batch, in_});
  math::gemm(false, false, batch, in_, out_, 1.0, grad_output.data(), out_, weight_.data(),
             in_, 0.0, grad_in.data(), in_);
  return grad_in;
}

std::vector<Param> Dense::params() {
  to_output_major();
  ensure_grads();
  return {{&weight_, &weight_grad_, "weight"}, {&bias_, &bias_grad_, "bias"}};
}

std::vector<size_t> Dense::output_shape(const std::vector<size_t>& input_shape) const {
  if (input_shape.size() != 2 || input_shape[1] != in_)
    throw std::invalid_argument("Dense::output_shape: incompatible input shape");
  return {input_shape[0], out_};
}

void Dense::save(util::BinaryWriter& w) const {
  w.write_u64(in_);
  w.write_u64(out_);
  if (input_major_) {
    w.write_f64_vector(weight_.vec());
  } else {
    // W^T, a few input rows at a time through a buffer of at most 256 KB
    // (or one row): no second copy of the weight.
    w.write_u64(weight_.size());
    const size_t rows = std::min(in_, std::max<size_t>(1, (size_t{1} << 15) / out_));
    std::vector<double> buf(rows * out_);
    const double* W = weight_.data();
    for (size_t p0 = 0; p0 < in_; p0 += rows) {
      const size_t nr = std::min(rows, in_ - p0);
      for (size_t o = 0; o < out_; ++o)
        for (size_t p = 0; p < nr; ++p) buf[p * out_ + o] = W[o * in_ + p0 + p];
      w.write_f64_array(buf.data(), nr * out_);
    }
  }
  w.write_f64_vector(bias_.vec());
}

std::unique_ptr<Dense> Dense::load(util::BinaryReader& r, uint32_t format) {
  const size_t in = r.read_u64();
  const size_t out = r.read_u64();
  const bool input_major = format != kModelFormatOutputMajor;
  Tensor weight = input_major
                      ? Tensor({in, out}, detail::read_param(r, {in, out}, "Dense::load"))
                      : Tensor({out, in}, detail::read_param(r, {out, in}, "Dense::load"));
  Tensor bias({out}, detail::read_param(r, {out}, "Dense::load"));
  return std::unique_ptr<Dense>(new Dense(std::move(weight), std::move(bias), input_major));
}

}  // namespace dlpic::nn
