#include "nn/backend.hpp"

#include <string>

#include "nn/backend_elementwise.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace dlpic::nn {

KernelBackend::~KernelBackend() = default;

namespace {

// MR rows of the reference skinny NT kernel. Like the scalar gemm_block it
// runs a register tile of independent accumulators (MR rows x 4 columns),
// so it is not bound by the latency of one add chain; each output still
// sees a fresh accumulator, ascending p and mul-then-add, then C += acc.
template <size_t MR>
void gemm_nt_rows_ref(size_t nb, size_t kb, const double* a, const double* B, size_t ldb,
                      double* C, size_t ldc) {
  size_t j = 0;
  for (; j + 4 <= nb; j += 4) {
    const double* b0 = B + (j + 0) * ldb;
    const double* b1 = B + (j + 1) * ldb;
    const double* b2 = B + (j + 2) * ldb;
    const double* b3 = B + (j + 3) * ldb;
    double acc[MR][4] = {};
    for (size_t p = 0; p < kb; ++p) {
      const double bv[4] = {b0[p], b1[p], b2[p], b3[p]};
      for (size_t i = 0; i < MR; ++i)
        for (size_t c = 0; c < 4; ++c) acc[i][c] += a[i * kb + p] * bv[c];
    }
    for (size_t i = 0; i < MR; ++i)
      for (size_t c = 0; c < 4; ++c) C[i * ldc + j + c] += acc[i][c];
  }
  for (; j < nb; ++j) {
    const double* b = B + j * ldb;
    for (size_t i = 0; i < MR; ++i) {
      double acc = 0;
      for (size_t p = 0; p < kb; ++p) acc += a[i * kb + p] * b[p];
      C[i * ldc + j] += acc;
    }
  }
}

}  // namespace

// Reference skinny NT kernel: the scalar gemm_block's arithmetic with B read
// in place, in groups of up to 4 rows (this TU is compiled with
// -ffp-contract=off alongside the SIMD backends, so the mul-then-add never
// fuses).
void KernelBackend::gemm_nt_block(size_t mr, size_t nb, size_t kb, const double* a,
                                  const double* B, size_t ldb, double* C,
                                  size_t ldc) const {
  for (size_t i = 0; i < mr; i += 4) {
    const double* ai = a + i * kb;
    double* Ci = C + i * ldc;
    switch (mr - i) {
      case 1: gemm_nt_rows_ref<1>(nb, kb, ai, B, ldb, Ci, ldc); break;
      case 2: gemm_nt_rows_ref<2>(nb, kb, ai, B, ldb, Ci, ldc); break;
      case 3: gemm_nt_rows_ref<3>(nb, kb, ai, B, ldb, Ci, ldc); break;
      default: gemm_nt_rows_ref<4>(nb, kb, ai, B, ldb, Ci, ldc); break;
    }
  }
}

// Reference int16 kernel: a plain widened dot per output element. The
// accumulation is exact integer arithmetic (and the int64 sum fits a double
// exactly under the kQuantizedGemmInt16MaxDepth bound), so the compiler is
// free to vectorize this loop without changing a single bit of the result.
void KernelBackend::gemm_int16(size_t mb, size_t nb, size_t kb, const int16_t* Aq,
                               const double* a_scales, const int16_t* Bq,
                               const double* b_scales, double* C, size_t ldc) const {
  for (size_t i = 0; i < mb; ++i) {
    const int16_t* a = Aq + i * kb;
    for (size_t j = 0; j < nb; ++j) {
      const int16_t* b = Bq + j * kb;
      int64_t acc = 0;
      for (size_t p = 0; p < kb; ++p)
        acc += static_cast<int64_t>(a[p]) * static_cast<int64_t>(b[p]);
      C[i * ldc + j] = (a_scales[i] * b_scales[j]) * static_cast<double>(acc);
    }
  }
}

// The elementwise references: the shared bodies, compiled for the portable
// target.

void KernelBackend::add_bias_rows(size_t rows, size_t cols, const double* bias,
                                  double* out) const {
  elementwise::add_bias_rows(rows, cols, bias, out);
}

void KernelBackend::relu_forward(size_t n, const double* x, double* y) const {
  elementwise::relu_forward(n, x, y);
}

void KernelBackend::relu_backward(size_t n, const double* y, const double* gout,
                                  double* gin) const {
  elementwise::relu_backward(n, y, gout, gin);
}

void KernelBackend::leaky_relu_forward(size_t n, double alpha, const double* x,
                                       double* xc, double* y) const {
  elementwise::leaky_relu_forward(n, alpha, x, xc, y);
}

void KernelBackend::leaky_relu_backward(size_t n, double alpha, const double* x,
                                        const double* gout, double* gin) const {
  elementwise::leaky_relu_backward(n, alpha, x, gout, gin);
}

void KernelBackend::tanh_backward(size_t n, const double* y, const double* gout,
                                  double* gin) const {
  elementwise::tanh_backward(n, y, gout, gin);
}

void KernelBackend::sgd_update(size_t n, double lr, const double* g, double* w) const {
  elementwise::sgd_update(n, lr, g, w);
}

void KernelBackend::sgd_momentum_update(size_t n, double lr, double momentum,
                                        const double* g, double* vel, double* w) const {
  elementwise::sgd_momentum_update(n, lr, momentum, g, vel, w);
}

void KernelBackend::adam_update(size_t n, double lr, double beta1, double beta2,
                                double bc1, double bc2, double eps, const double* g,
                                double* m, double* v, double* w) const {
  elementwise::adam_update(n, lr, beta1, beta2, bc1, bc2, eps, g, m, v, w);
}

// Reference FFT stages. The AVX2 overrides mirror this exact operation
// order (product terms identical, additions merely commuted, which IEEE-754
// addition permits bitwise), and this TU is compiled with -ffp-contract=off
// when any SIMD backend is, so the reference itself never fuses into FMA.

// GCC's vectorizer fuses complex mul+addsub into vfmaddsub even under -ffp-contract=off.
#if defined(__GNUC__) && !defined(__clang__)
#define DLPIC_NO_VECTORIZE __attribute__((optimize("no-tree-vectorize")))
#else
#define DLPIC_NO_VECTORIZE
#endif

DLPIC_NO_VECTORIZE
void KernelBackend::fft_radix2_pass(size_t n, size_t len, const double* tw,
                                    double* data) const {
  const size_t half = len / 2;
  if (len == 2) {
    // The only twiddle is exactly 1: skip the multiply so signed zeros in
    // the input can never flip sign through a `* 0.0` term.
    for (size_t i = 0; i < n; i += 2) {
      double* p = data + 2 * i;
      const double ur = p[0], ui = p[1];
      const double vr = p[2], vi = p[3];
      p[0] = ur + vr;
      p[1] = ui + vi;
      p[2] = ur - vr;
      p[3] = ui - vi;
    }
    return;
  }
  for (size_t i = 0; i < n; i += len) {
    double* base = data + 2 * i;
    for (size_t k = 0; k < half; ++k) {
      const double wr = tw[2 * k], wi = tw[2 * k + 1];
      double* u = base + 2 * k;
      double* v = base + 2 * (k + half);
      const double vr = v[0] * wr - v[1] * wi;
      const double vi = v[0] * wi + v[1] * wr;
      const double ur = u[0], ui = u[1];
      u[0] = ur + vr;
      u[1] = ui + vi;
      v[0] = ur - vr;
      v[1] = ui - vi;
    }
  }
}

DLPIC_NO_VECTORIZE
void KernelBackend::fft_radix4_pass(size_t n, size_t len, const double* twA,
                                    const double* twB, const double* twC,
                                    double* data) const {
  const size_t q = len / 4;
  for (size_t i = 0; i < n; i += len) {
    double* base = data + 2 * i;
    for (size_t k = 0; k < q; ++k) {
      double* p0 = base + 2 * k;
      double* p1 = base + 2 * (k + q);
      double* p2 = base + 2 * (k + 2 * q);
      double* p3 = base + 2 * (k + 3 * q);
      // Stage len/2: butterflies (p0, p1) and (p2, p3) with twiddle twA[k].
      double t1r, t1i, t3r, t3i;
      if (q == 1) {
        // twA is the unit twiddle of a len == 2 stage: no multiply.
        t1r = p1[0], t1i = p1[1];
        t3r = p3[0], t3i = p3[1];
      } else {
        const double ar = twA[2 * k], ai = twA[2 * k + 1];
        t1r = p1[0] * ar - p1[1] * ai;
        t1i = p1[0] * ai + p1[1] * ar;
        t3r = p3[0] * ar - p3[1] * ai;
        t3i = p3[0] * ai + p3[1] * ar;
      }
      const double u0r = p0[0] + t1r, u0i = p0[1] + t1i;
      const double u1r = p0[0] - t1r, u1i = p0[1] - t1i;
      const double u2r = p2[0] + t3r, u2i = p2[1] + t3i;
      const double u3r = p2[0] - t3r, u3i = p2[1] - t3i;
      // Stage len: butterflies (u0, u2) with twB[k] and (u1, u3) with twC[k].
      const double br = twB[2 * k], bi = twB[2 * k + 1];
      const double v2r = u2r * br - u2i * bi;
      const double v2i = u2r * bi + u2i * br;
      const double cr = twC[2 * k], ci = twC[2 * k + 1];
      const double v3r = u3r * cr - u3i * ci;
      const double v3i = u3r * ci + u3i * cr;
      p0[0] = u0r + v2r;
      p0[1] = u0i + v2i;
      p1[0] = u1r + v3r;
      p1[1] = u1i + v3i;
      p2[0] = u0r - v2r;
      p2[1] = u0i - v2i;
      p3[0] = u1r - v3r;
      p3[1] = u1i - v3i;
    }
  }
}

DLPIC_NO_VECTORIZE
void KernelBackend::cplx_mul(size_t n, const double* a, const double* b,
                             double* out) const {
  for (size_t i = 0; i < n; ++i) {
    const double ar = a[2 * i], ai = a[2 * i + 1];
    const double br = b[2 * i], bi = b[2 * i + 1];
    out[2 * i] = ar * br - ai * bi;
    out[2 * i + 1] = ar * bi + ai * br;
  }
}

// ---------------------------------------------------------------------------
// Selection.

namespace {

thread_local const KernelBackend* t_active_backend = nullptr;

const KernelBackend* resolve_default() {
  const std::string request = util::env_string_or("DLPIC_BACKEND", "auto");
  if (request == "scalar") return &scalar_backend();
  if (request == "avx2") {
    if (const KernelBackend* be = avx2_backend()) return be;
    DLPIC_LOG_WARN(
        "DLPIC_BACKEND=avx2 but this build/CPU has no AVX2 backend; "
        "falling back to scalar");
    return &scalar_backend();
  }
  if (request == "avx512") {
    if (const KernelBackend* be = avx512_backend()) return be;
    DLPIC_LOG_WARN(
        "DLPIC_BACKEND=avx512 but this build/CPU has no AVX-512 VNNI backend; "
        "falling back to scalar");
    return &scalar_backend();
  }
  if (!request.empty() && request != "auto")
    DLPIC_LOG_WARN(
        "unknown DLPIC_BACKEND '%s' (want scalar|avx2|avx512|auto); using auto",
        request.c_str());
  if (const KernelBackend* be = avx512_backend()) return be;
  if (const KernelBackend* be = avx2_backend()) return be;
  return &scalar_backend();
}

}  // namespace

const KernelBackend& default_backend() {
  static const KernelBackend* backend = resolve_default();
  return *backend;
}

const KernelBackend& active_backend() {
  return t_active_backend != nullptr ? *t_active_backend : default_backend();
}

const KernelBackend* backend_by_name(const char* name) {
  if (name == nullptr) return nullptr;
  const std::string n(name);
  if (n == "scalar") return &scalar_backend();
  if (n == "avx2") return avx2_backend();
  if (n == "avx512") return avx512_backend();
  return nullptr;
}

ScopedBackend::ScopedBackend(const KernelBackend* backend) : previous_(t_active_backend) {
  if (backend != nullptr) t_active_backend = backend;
}

ScopedBackend::~ScopedBackend() { t_active_backend = previous_; }

}  // namespace dlpic::nn
