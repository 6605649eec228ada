#pragma once
/// \file backend_elementwise.hpp
/// The nine elementwise kernel bodies, each written once as a plain loop:
/// the dense bias add, the ReLU / leaky-ReLU / tanh-backward activations and
/// the SGD, SGD-momentum and Adam updates. KernelBackend's reference methods
/// (backend.cpp) and the AVX2 overrides (backend_avx2.cpp) call the same
/// body; the AVX2 unit's flags (-mavx2 -mfma -ffp-contract=off
/// -fno-math-errno -fno-trapping-math) let the compiler vectorize it there.
/// Vectorizing a map changes no operation: without contraction there is no
/// FMA, vector sqrt and division are IEEE-exact like the scalar ones, and a
/// vector select computes both arms and keeps the one the scalar code
/// takes, so every backend produces the same bits.
///
/// The bodies have internal linkage and are always inlined, so no SIMD unit
/// defines a copy that the linker could hand to portable code (see
/// util/inline.hpp). Only backend implementation files include this header.
/// Every load is unconditional, so the selects vectorize without masked
/// loads.

#include <cmath>
#include <cstddef>

#include "util/inline.hpp"

namespace dlpic::nn::elementwise {
namespace {

DLPIC_ALWAYS_INLINE void add_bias_rows(size_t rows, size_t cols, const double* bias,
                                       double* out) {
  for (size_t r = 0; r < rows; ++r) {
    double* row = out + r * cols;
    for (size_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

DLPIC_ALWAYS_INLINE void relu_forward(size_t n, const double* x, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] = x[i] < 0.0 ? 0.0 : x[i];
}

DLPIC_ALWAYS_INLINE void relu_backward(size_t n, const double* y, const double* gout,
                                       double* gin) {
  for (size_t i = 0; i < n; ++i) {
    const double g = gout[i];
    gin[i] = y[i] <= 0.0 ? 0.0 : g;
  }
}

DLPIC_ALWAYS_INLINE void leaky_relu_forward(size_t n, double alpha, const double* x,
                                            double* xc, double* y) {
  for (size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    xc[i] = xi;
    y[i] = xi < 0.0 ? alpha * xi : xi;
  }
}

DLPIC_ALWAYS_INLINE void leaky_relu_backward(size_t n, double alpha, const double* x,
                                             const double* gout, double* gin) {
  for (size_t i = 0; i < n; ++i) {
    const double g = gout[i];
    gin[i] = x[i] <= 0.0 ? alpha * g : g;
  }
}

DLPIC_ALWAYS_INLINE void tanh_backward(size_t n, const double* y, const double* gout,
                                       double* gin) {
  for (size_t i = 0; i < n; ++i) gin[i] = gout[i] * (1.0 - y[i] * y[i]);
}

DLPIC_ALWAYS_INLINE void sgd_update(size_t n, double lr, const double* g, double* w) {
  for (size_t i = 0; i < n; ++i) w[i] -= lr * g[i];
}

DLPIC_ALWAYS_INLINE void sgd_momentum_update(size_t n, double lr, double momentum,
                                             const double* g, double* vel, double* w) {
  for (size_t i = 0; i < n; ++i) {
    vel[i] = momentum * vel[i] - lr * g[i];
    w[i] += vel[i];
  }
}

DLPIC_ALWAYS_INLINE void adam_update(size_t n, double lr, double beta1, double beta2,
                                     double bc1, double bc2, double eps, const double* g,
                                     double* m, double* v, double* w) {
  for (size_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace
}  // namespace dlpic::nn::elementwise
