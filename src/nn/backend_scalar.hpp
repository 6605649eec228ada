#pragma once
/// \file backend_scalar.hpp
/// The portable scalar KernelBackend plus the shape-templated PIC range
/// kernels it is built from. The range templates live here (not in the .cpp)
/// so the AVX2 backend reuses them verbatim for loop tails — which is what
/// keeps the two backends bitwise identical on the PIC path. They, and the
/// pic helpers they call, are always inlined (util/inline.hpp), so the SIMD
/// units that call them define no copy of them.
///
/// Only backend implementation files include this header; everything else
/// goes through the KernelBackend interface in backend.hpp.

#include <cstddef>

#include "nn/backend.hpp"
#include "pic/grid.hpp"
#include "pic/shape_kernels.hpp"
#include "util/inline.hpp"

namespace dlpic::nn {

namespace backend_detail {

/// True for a finite x: x - x is 0 there and NaN for NaN and ±inf. (The
/// SIMD units call this; std::isfinite would be a weak std:: copy at -O0.)
DLPIC_ALWAYS_INLINE bool is_finite(double x) { return x - x == 0.0; }

/// Throws std::invalid_argument: particle `index` reached `kernel` with a
/// non-finite position. Defined out of line in backend_scalar.cpp, so the
/// SIMD units that reach it through the ranges below build no string.
[[noreturn]] void throw_non_finite_position(const char* kernel, size_t index);

template <pic::Shape S>
DLPIC_ALWAYS_INLINE void gather_range(const double* E, const double* x, double* out,
                                      size_t lo, size_t hi, double inv_dx, long ncells) {
  for (size_t p = lo; p < hi; ++p)
    out[p] = pic::gather_at<S>(E, x[p] * inv_dx, ncells);
}

template <pic::Shape S>
DLPIC_ALWAYS_INLINE void stagger_range(const double* E, const double* x, double* v,
                                       size_t lo, size_t hi, double inv_dx, long ncells,
                                       double qm_half_dt) {
  for (size_t p = lo; p < hi; ++p) {
    if (!is_finite(x[p])) throw_non_finite_position("velocity stagger", p);
    v[p] += qm_half_dt * pic::gather_at<S>(E, x[p] * inv_dx, ncells);
  }
}

template <pic::Shape S>
DLPIC_ALWAYS_INLINE void leapfrog_range(const double* E, double* x, double* v, size_t lo,
                                        size_t hi, double inv_dx, long ncells, double qm_dt,
                                        double dt, double length) {
  for (size_t p = lo; p < hi; ++p) {
    if (!is_finite(x[p])) throw_non_finite_position("leapfrog push", p);
    const double Ep = pic::gather_at<S>(E, x[p] * inv_dx, ncells);
    v[p] += qm_dt * Ep;
    x[p] = pic::wrap_periodic(x[p] + v[p] * dt, length);
  }
}

template <pic::Shape S>
DLPIC_ALWAYS_INLINE void deposit_range(double* buf, const double* x, size_t lo, size_t hi,
                                       double inv_dx, long ncells, double value) {
  for (size_t p = lo; p < hi; ++p)
    pic::scatter_at<S>(buf, x[p] * inv_dx, ncells, value);
}

/// NGP phase-space binning of particles [lo, hi) (KernelBackend::bin_ngp's
/// contract); returns the clamp count. The vector backends run their
/// out-of-box and non-finite lanes through it. Defined out of line in
/// backend_scalar.cpp, which is compiled without SIMD target flags.
size_t bin_ngp_range(const KernelBackend::PhaseSpaceGrid& g, const double* x,
                     const double* v, size_t lo, size_t hi, double* hist);

}  // namespace backend_detail

/// Portable reference backend: the blocked 4x4 register-tile f64 GEMM and
/// the int8 GEMM micro-kernels, the PIC ranges and NGP binning. Every other
/// kernel is the KernelBackend reference it inherits.
class ScalarBackend final : public KernelBackend {
 public:
  [[nodiscard]] const char* name() const override { return "scalar"; }

  void gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                  const double* Bpanel, double* C, size_t ldc) const override;

  void gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                 const double* a_scales, const int8_t* Bq, const double* b_scales,
                 double* C, size_t ldc) const override;

  [[nodiscard]] PicGatherFn pic_gather(int shape) const override;
  [[nodiscard]] PicStaggerFn pic_stagger(int shape) const override;
  [[nodiscard]] PicLeapfrogFn pic_leapfrog(int shape) const override;
  [[nodiscard]] PicDepositFn pic_deposit(int shape) const override;
  [[nodiscard]] BinNgpFn bin_ngp() const override;
};

}  // namespace dlpic::nn
