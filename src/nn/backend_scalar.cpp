#include "nn/backend_scalar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dlpic::nn {

namespace backend_detail {

size_t bin_ngp_range(const KernelBackend::PhaseSpaceGrid& g, const double* x,
                     const double* v, size_t lo, size_t hi, double* hist) {
  size_t clamped = 0;
  for (size_t p = lo; p < hi; ++p) {
    // Periodic wrap in x. The mover already wraps into [0, length), so
    // wrap_periodic's in-box fast path returns almost every x unchanged.
    const double xp = pic::wrap_periodic(x[p], g.length);
    double vp = v[p];
    if (!std::isfinite(xp) || std::isnan(vp))
      throw std::invalid_argument("phase-space binning: particle " + std::to_string(p) +
                                  " has a non-finite position or a NaN velocity");
    // Clamp in v (velocity axis is not periodic).
    if (vp < g.vmin || vp > g.vmax) {
      ++clamped;
      vp = std::min(std::max(vp, g.vmin), g.vmax);
    }
    const double xi = xp * g.inv_dx;             // in [0, nx)
    const double vi = (vp - g.vmin) * g.inv_dv;  // in [0, nv]
    size_t ix = static_cast<size_t>(xi);
    if (ix >= g.nx) ix = g.nx - 1;
    size_t iv = static_cast<size_t>(vi);
    if (iv >= g.nv) iv = g.nv - 1;  // v == vmax lands in the top bin
    hist[iv * g.nx + ix] += 1.0;
  }
  return clamped;
}

namespace {

size_t bin_ngp(const KernelBackend::PhaseSpaceGrid& g, const double* x, const double* v,
               size_t n, double* hist) {
  return bin_ngp_range(g, x, v, 0, n, hist);
}

}  // namespace

}  // namespace backend_detail

// The 4x4 register-tile micro-kernel previously private to math::gemm. The
// k-order per output element is ascending p, matching every other backend.
void ScalarBackend::gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                               const double* Bpanel, double* C, size_t ldc) const {
  size_t i = 0;
  for (; i + 4 <= mb; i += 4) {
    size_t j = 0;
    for (; j + 4 <= nb; j += 4) {
      double c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      double c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      double c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      double c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      const double* a0 = Apanel + (i + 0) * kb;
      const double* a1 = Apanel + (i + 1) * kb;
      const double* a2 = Apanel + (i + 2) * kb;
      const double* a3 = Apanel + (i + 3) * kb;
      for (size_t p = 0; p < kb; ++p) {
        const double b0 = Bpanel[p * nb + j + 0];
        const double b1 = Bpanel[p * nb + j + 1];
        const double b2 = Bpanel[p * nb + j + 2];
        const double b3 = Bpanel[p * nb + j + 3];
        const double av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        c00 += av0 * b0; c01 += av0 * b1; c02 += av0 * b2; c03 += av0 * b3;
        c10 += av1 * b0; c11 += av1 * b1; c12 += av1 * b2; c13 += av1 * b3;
        c20 += av2 * b0; c21 += av2 * b1; c22 += av2 * b2; c23 += av2 * b3;
        c30 += av3 * b0; c31 += av3 * b1; c32 += av3 * b2; c33 += av3 * b3;
      }
      double* c0 = C + (i + 0) * ldc + j;
      double* c1 = C + (i + 1) * ldc + j;
      double* c2 = C + (i + 2) * ldc + j;
      double* c3 = C + (i + 3) * ldc + j;
      c0[0] += c00; c0[1] += c01; c0[2] += c02; c0[3] += c03;
      c1[0] += c10; c1[1] += c11; c1[2] += c12; c1[3] += c13;
      c2[0] += c20; c2[1] += c21; c2[2] += c22; c2[3] += c23;
      c3[0] += c30; c3[1] += c31; c3[2] += c32; c3[3] += c33;
    }
    for (; j < nb; ++j) {
      for (size_t ii = i; ii < i + 4; ++ii) {
        double acc = 0;
        const double* a = Apanel + ii * kb;
        for (size_t p = 0; p < kb; ++p) acc += a[p] * Bpanel[p * nb + j];
        C[ii * ldc + j] += acc;
      }
    }
  }
  for (; i < mb; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      double acc = 0;
      const double* a = Apanel + i * kb;
      for (size_t p = 0; p < kb; ++p) acc += a[p] * Bpanel[p * nb + j];
      C[i * ldc + j] += acc;
    }
  }
}

// Reference int8 kernel: a plain widened dot per output element. The
// accumulation is exact integer arithmetic, so the compiler is free to
// vectorize this loop without changing a single bit of the result.
void ScalarBackend::gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                              const double* a_scales, const int8_t* Bq,
                              const double* b_scales, double* C, size_t ldc) const {
  for (size_t i = 0; i < mb; ++i) {
    const int8_t* a = Aq + i * kb;
    for (size_t j = 0; j < nb; ++j) {
      const int8_t* b = Bq + j * kb;
      int32_t acc = 0;
      for (size_t p = 0; p < kb; ++p)
        acc += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
      C[i * ldc + j] = (a_scales[i] * b_scales[j]) * static_cast<double>(acc);
    }
  }
}

KernelBackend::PicGatherFn ScalarBackend::pic_gather(int shape) const {
  switch (shape) {
    case 0: return &backend_detail::gather_range<pic::Shape::NGP>;
    case 1: return &backend_detail::gather_range<pic::Shape::CIC>;
    default: return &backend_detail::gather_range<pic::Shape::TSC>;
  }
}

KernelBackend::PicStaggerFn ScalarBackend::pic_stagger(int shape) const {
  switch (shape) {
    case 0: return &backend_detail::stagger_range<pic::Shape::NGP>;
    case 1: return &backend_detail::stagger_range<pic::Shape::CIC>;
    default: return &backend_detail::stagger_range<pic::Shape::TSC>;
  }
}

KernelBackend::PicLeapfrogFn ScalarBackend::pic_leapfrog(int shape) const {
  switch (shape) {
    case 0: return &backend_detail::leapfrog_range<pic::Shape::NGP>;
    case 1: return &backend_detail::leapfrog_range<pic::Shape::CIC>;
    default: return &backend_detail::leapfrog_range<pic::Shape::TSC>;
  }
}

KernelBackend::PicDepositFn ScalarBackend::pic_deposit(int shape) const {
  switch (shape) {
    case 0: return &backend_detail::deposit_range<pic::Shape::NGP>;
    case 1: return &backend_detail::deposit_range<pic::Shape::CIC>;
    default: return &backend_detail::deposit_range<pic::Shape::TSC>;
  }
}

KernelBackend::BinNgpFn ScalarBackend::bin_ngp() const { return &backend_detail::bin_ngp; }

const KernelBackend& scalar_backend() {
  static const ScalarBackend backend;
  return backend;
}

}  // namespace dlpic::nn
