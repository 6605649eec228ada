#pragma once
/// \file backend_avx2.hpp
/// AVX2+FMA kernel backend. The implementation file is compiled with
/// -mavx2 -mfma -ffp-contract=off -fno-math-errno on x86-64 (see
/// CMakeLists); on other targets, or with compilers lacking the flags, the
/// class has no definition, avx2_backend() resolves to nullptr and the
/// scalar backend serves everything.
///
/// Every kernel is overridden. The GEMMs, FFT passes, PIC ranges and NGP
/// binning are written in intrinsics; the nine elementwise kernels call the
/// shared bodies of backend_elementwise.hpp, which the unit's flags
/// vectorize.
///
/// Numerics: the f64 GEMM micro-kernels use FMA (bits may differ from scalar
/// within a tight ULP bound); every other kernel runs the scalar operations
/// in the scalar order without FMA and is bitwise identical to the scalar
/// backend — including the PIC stencils, whose loop tails run the scalar
/// shape templates.
///
/// The class is declared here so that the AVX-512 backend can derive from
/// it; avx2_backend() in backend.hpp is the public surface.

#include "nn/backend.hpp"

namespace dlpic::nn {

class Avx2Backend : public KernelBackend {
 public:
  [[nodiscard]] const char* name() const override;

  void gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                  const double* Bpanel, double* C, size_t ldc) const override;
  void gemm_nt_block(size_t mr, size_t nb, size_t kb, const double* a, const double* B,
                     size_t ldb, double* C, size_t ldc) const override;
  void gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                 const double* a_scales, const int8_t* Bq, const double* b_scales,
                 double* C, size_t ldc) const override;
  void gemm_int16(size_t mb, size_t nb, size_t kb, const int16_t* Aq,
                  const double* a_scales, const int16_t* Bq, const double* b_scales,
                  double* C, size_t ldc) const override;

  void add_bias_rows(size_t rows, size_t cols, const double* bias,
                     double* out) const override;
  void relu_forward(size_t n, const double* x, double* y) const override;
  void relu_backward(size_t n, const double* y, const double* gout,
                     double* gin) const override;
  void leaky_relu_forward(size_t n, double alpha, const double* x, double* xc,
                          double* y) const override;
  void leaky_relu_backward(size_t n, double alpha, const double* x, const double* gout,
                           double* gin) const override;
  void tanh_backward(size_t n, const double* y, const double* gout,
                     double* gin) const override;
  void sgd_update(size_t n, double lr, const double* g, double* w) const override;
  void sgd_momentum_update(size_t n, double lr, double momentum, const double* g,
                           double* vel, double* w) const override;
  void adam_update(size_t n, double lr, double beta1, double beta2, double bc1,
                   double bc2, double eps, const double* g, double* m, double* v,
                   double* w) const override;

  void fft_radix2_pass(size_t n, size_t len, const double* tw,
                       double* data) const override;
  void fft_radix4_pass(size_t n, size_t len, const double* twA, const double* twB,
                       const double* twC, double* data) const override;
  void cplx_mul(size_t n, const double* a, const double* b, double* out) const override;

  [[nodiscard]] PicGatherFn pic_gather(int shape) const override;
  [[nodiscard]] PicStaggerFn pic_stagger(int shape) const override;
  [[nodiscard]] PicLeapfrogFn pic_leapfrog(int shape) const override;
  [[nodiscard]] PicDepositFn pic_deposit(int shape) const override;
  [[nodiscard]] BinNgpFn bin_ngp() const override;
};

}  // namespace dlpic::nn
