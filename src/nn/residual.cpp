#include "nn/residual.hpp"

#include <memory>
#include <stdexcept>

#include "util/parallel.hpp"

namespace dlpic::nn {

namespace {
// Workspace slot ids.
constexpr int kSlotPre = 0;   // pre-activation of the inner layer
constexpr int kSlotSkip = 1;  // copy of the block input for the skip path
}  // namespace

// Zero-sized blocks are rejected by the Dense constructors.
ResidualDense::ResidualDense(size_t width, size_t hidden)
    : width_(width), hidden_(hidden), inner_(width, hidden), outer_(hidden, width) {}

// He init for the ReLU inner layer, Glorot for the linear outer layer so the
// block starts near identity-plus-small-perturbation. Members initialize in
// declaration order, so the shared rng is drawn inner first.
ResidualDense::ResidualDense(size_t width, size_t hidden, math::Rng& rng)
    : width_(width),
      hidden_(hidden),
      inner_(width, hidden, rng, /*linear_output=*/false),
      outer_(hidden, width, rng, /*linear_output=*/true) {}

ResidualDense::ResidualDense(Dense inner, Dense outer)
    : width_(inner.in_features()),
      hidden_(inner.out_features()),
      inner_(std::move(inner)),
      outer_(std::move(outer)) {}

Tensor& ResidualDense::forward(ExecutionContext& ctx, const Tensor& input, bool training) {
  if (input.rank() != 2 || input.dim(1) != width_)
    throw std::invalid_argument("ResidualDense::forward: expected [batch, " +
                                std::to_string(width_) + "], got " + input.shape_string());
  util::ScopedWorkerCap cap(ctx.worker_cap());
  const size_t batch = input.dim(0);
  // Keep a copy of the input for the skip add: `input` may reference the
  // upstream layer's workspace slot, which the inner layers do not touch,
  // but the copy also serves composite stacking (block after block).
  Tensor& skip = ctx.workspace().tensor(this, kSlotSkip, {batch, width_});
  detail::parallel_copy(input.data(), skip.data(), input.size());

  Tensor& h = inner_.forward(ctx, input, training);
  Tensor& pre = ctx.workspace().tensor(this, kSlotPre, {batch, hidden_});
  detail::parallel_copy(h.data(), pre.data(), h.size());
  // ReLU applied in place on the inner layer's output slot (owned by this
  // block); the pre-activation copy feeds the mask in backward.
  double* p = h.data();
  util::parallel_for_chunks(
      0, h.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
          if (p[i] < 0.0) p[i] = 0.0;
      },
      detail::kElemGrain);
  Tensor& out = outer_.forward(ctx, h, training);
  // Identity skip, in place on the outer layer's output slot.
  double* o = out.data();
  const double* s = skip.data();
  util::parallel_for_chunks(
      0, out.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) o[i] += s[i];
      },
      detail::kElemGrain);
  return out;
}

Tensor& ResidualDense::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  util::ScopedWorkerCap cap(ctx.worker_cap());
  // d/dx [x + f(x)] = I + f'(x): the skip adds grad_output directly.
  Tensor& g_hidden = outer_.backward(ctx, grad_output);
  Tensor& pre = ctx.workspace().peek(this, kSlotPre);
  if (!g_hidden.same_shape(pre))
    throw std::runtime_error("ResidualDense::backward before forward");
  double* g = g_hidden.data();
  const double* pp = pre.data();
  util::parallel_for_chunks(
      0, g_hidden.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
          if (pp[i] <= 0.0) g[i] = 0.0;
      },
      detail::kElemGrain);
  Tensor& grad_in = inner_.backward(ctx, g_hidden);
  double* gi = grad_in.data();
  const double* go = grad_output.data();
  util::parallel_for_chunks(
      0, grad_in.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) gi[i] += go[i];
      },
      detail::kElemGrain);
  return grad_in;
}

std::vector<Param> ResidualDense::params() {
  std::vector<Param> out;
  for (auto& p : inner_.params()) {
    p.name = "inner." + p.name;
    out.push_back(p);
  }
  for (auto& p : outer_.params()) {
    p.name = "outer." + p.name;
    out.push_back(p);
  }
  return out;
}

std::vector<size_t> ResidualDense::output_shape(
    const std::vector<size_t>& input_shape) const {
  if (input_shape.size() != 2 || input_shape[1] != width_)
    throw std::invalid_argument("ResidualDense::output_shape: incompatible input shape");
  return input_shape;
}

void ResidualDense::save(util::BinaryWriter& w) const {
  w.write_u64(width_);
  w.write_u64(hidden_);
  inner_.save(w);
  outer_.save(w);
}

std::unique_ptr<ResidualDense> ResidualDense::load(util::BinaryReader& r, uint32_t format) {
  const size_t width = r.read_u64();
  const size_t hidden = r.read_u64();
  auto inner = Dense::load(r, format);
  auto outer = Dense::load(r, format);
  if (inner->in_features() != width || inner->out_features() != hidden ||
      outer->in_features() != hidden || outer->out_features() != width)
    throw std::runtime_error("ResidualDense::load: sub-layer shape mismatch");
  return std::unique_ptr<ResidualDense>(
      new ResidualDense(std::move(*inner), std::move(*outer)));
}

}  // namespace dlpic::nn
