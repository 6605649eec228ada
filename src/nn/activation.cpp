#include "nn/activation.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "util/parallel.hpp"

namespace dlpic::nn {

namespace {
// Workspace slot ids shared by the elementwise activations.
constexpr int kSlotCache = 0;  // input (ReLU/LeakyReLU) or output (Tanh)
constexpr int kSlotOut = 1;
constexpr int kSlotGradIn = 2;

// Acquires a workspace tensor reshaped to the same shape as `like`.
Tensor& like_tensor(ExecutionContext& ctx, const void* owner, int slot, const Tensor& like) {
  Tensor& t = ctx.workspace().peek(owner, slot);
  t.resize(like.shape().data(), like.shape().size());
  return t;
}
}  // namespace

Tensor& ReLU::forward(ExecutionContext& ctx, const Tensor& input, bool /*training*/) {
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  const KernelBackend* be = &ctx.resolved_backend();
  // The output doubles as the backward cache: y > 0 iff x > 0, so no input
  // copy is needed (one read + one write per element).
  Tensor& out = like_tensor(ctx, this, kSlotCache, input);
  const double* x = input.data();
  double* p = out.data();
  util::parallel_for_chunks(
      0, input.size(),
      [&](size_t lo, size_t hi) { be->relu_forward(hi - lo, x + lo, p + lo); },
      detail::kElemGrain);
  return out;
}

Tensor& ReLU::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  const KernelBackend* be = &ctx.resolved_backend();
  Tensor& yc = ctx.workspace().peek(this, kSlotCache);
  if (!grad_output.same_shape(yc))
    throw std::invalid_argument("ReLU::backward: grad shape mismatch");
  Tensor& grad_in = like_tensor(ctx, this, kSlotGradIn, grad_output);
  double* g = grad_in.data();
  const double* go = grad_output.data();
  const double* y = yc.data();
  util::parallel_for_chunks(
      0, grad_in.size(),
      [&](size_t lo, size_t hi) { be->relu_backward(hi - lo, y + lo, go + lo, g + lo); },
      detail::kElemGrain);
  return grad_in;
}

void ReLU::save(util::BinaryWriter& /*w*/) const {}

std::unique_ptr<ReLU> ReLU::load(util::BinaryReader& /*r*/) {
  return std::make_unique<ReLU>();
}

Tensor& LeakyReLU::forward(ExecutionContext& ctx, const Tensor& input, bool /*training*/) {
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  const KernelBackend* be = &ctx.resolved_backend();
  Tensor& xc = like_tensor(ctx, this, kSlotCache, input);
  Tensor& out = like_tensor(ctx, this, kSlotOut, input);
  const double* x = input.data();
  double* xcp = xc.data();
  double* p = out.data();
  const double alpha = alpha_;
  util::parallel_for_chunks(
      0, input.size(),
      [&](size_t lo, size_t hi) {
        be->leaky_relu_forward(hi - lo, alpha, x + lo, xcp + lo, p + lo);
      },
      detail::kElemGrain);
  return out;
}

Tensor& LeakyReLU::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  const KernelBackend* be = &ctx.resolved_backend();
  Tensor& xc = ctx.workspace().peek(this, kSlotCache);
  if (!grad_output.same_shape(xc))
    throw std::invalid_argument("LeakyReLU::backward: grad shape mismatch");
  Tensor& grad_in = like_tensor(ctx, this, kSlotGradIn, grad_output);
  double* g = grad_in.data();
  const double* go = grad_output.data();
  const double* x = xc.data();
  const double alpha = alpha_;
  util::parallel_for_chunks(
      0, grad_in.size(),
      [&](size_t lo, size_t hi) {
        be->leaky_relu_backward(hi - lo, alpha, x + lo, go + lo, g + lo);
      },
      detail::kElemGrain);
  return grad_in;
}

void LeakyReLU::save(util::BinaryWriter& w) const { w.write_f64(alpha_); }

std::unique_ptr<LeakyReLU> LeakyReLU::load(util::BinaryReader& r) {
  return std::make_unique<LeakyReLU>(r.read_f64());
}

Tensor& Tanh::forward(ExecutionContext& ctx, const Tensor& input, bool /*training*/) {
  util::ScopedWorkerCap cap(ctx.worker_cap());
  Tensor& out = like_tensor(ctx, this, kSlotCache, input);  // output doubles as cache
  const double* x = input.data();
  double* p = out.data();
  // A libm call per element: no backend vectorizes it, so it is a plain loop.
  util::parallel_for_chunks(
      0, input.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) p[i] = std::tanh(x[i]);
      },
      detail::kElemGrain);
  return out;
}

Tensor& Tanh::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  const KernelBackend* be = &ctx.resolved_backend();
  Tensor& yc = ctx.workspace().peek(this, kSlotCache);
  if (!grad_output.same_shape(yc))
    throw std::invalid_argument("Tanh::backward: grad shape mismatch");
  Tensor& grad_in = like_tensor(ctx, this, kSlotGradIn, grad_output);
  double* g = grad_in.data();
  const double* go = grad_output.data();
  const double* y = yc.data();
  util::parallel_for_chunks(
      0, grad_in.size(),
      [&](size_t lo, size_t hi) { be->tanh_backward(hi - lo, y + lo, go + lo, g + lo); },
      detail::kElemGrain);
  return grad_in;
}

void Tanh::save(util::BinaryWriter& /*w*/) const {}

std::unique_ptr<Tanh> Tanh::load(util::BinaryReader& /*r*/) {
  return std::make_unique<Tanh>();
}

}  // namespace dlpic::nn
