#include "nn/backend_avx512.hpp"

#if defined(__AVX512VNNI__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX2__) && defined(__FMA__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cstddef>

namespace dlpic::nn {

namespace {

// ---------------------------------------------------------------------------
// Int8 dot-product building blocks on 32-wide ymm VNNI steps.
//
// vpdpbusd computes per int32 lane: acc += sum of 4 adjacent u8 x s8
// products (each product exact in int16, the 4-sum exact in int32). The
// signed x signed product a*b is rewritten as |a| * sign-transfer(b, a):
// |a| <= 127 fits the unsigned operand, the transferred operand stays in
// [-127, 127], and vpsignb zeroes b wherever a == 0 — matching the zero
// unsigned operand exactly. The kernel deliberately stays at 256 bits
// (AVX512VL exposes vpdpbusd on ymm): one dpbusd replaces the AVX2
// sequence maddubs + madd + add at the SAME vector width and clock — no
// 512-bit license downclocking to give the win back — and the AVX512BW
// masked loads turn the k remainder into one more VNNI step instead of a
// scalar tail loop. Per 32-wide step each int32 lane gains at most
// 4 * 127^2 = 64516, so lane overflow needs k beyond ~33M — far past
// kQuantizedGemmMaxDepth.

/// One 32-wide step of the int8 dot product: acc += sum_over_32(a * b)
/// spread across 8 int32 lanes.
inline __m256i dot_i8_step(__m256i acc, __m256i va, __m256i vb) {
  const __m256i abs_a = _mm256_abs_epi8(va);
  const __m256i sb = _mm256_sign_epi8(vb, va);
  return _mm256_dpbusd_epi32(acc, abs_a, sb);
}

/// Masked load of the final k % 32 codes; the zeroed lanes contribute 0 to
/// every product. rem must be in [1, 31].
inline __m256i load_tail_i8(const int8_t* p, size_t rem) {
  const __mmask32 m = (static_cast<__mmask32>(1) << rem) - 1;
  return _mm256_maskz_loadu_epi8(m, p);
}

inline int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// Full int8 dot product of two k-contiguous rows (vector body + one
/// masked step for the tail). Used by the gemm_int8 edge loops.
inline int32_t dot_i8_vnni(const int8_t* a, const int8_t* b, size_t k) {
  __m256i acc = _mm256_setzero_si256();
  size_t p = 0;
  for (; p + 32 <= k; p += 32)
    acc = dot_i8_step(acc,
                      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)),
                      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + p)));
  if (p < k) acc = dot_i8_step(acc, load_tail_i8(a + p, k - p), load_tail_i8(b + p, k - p));
  return hsum_epi32(acc);
}

// ---------------------------------------------------------------------------
// The backend: the AVX2 backend with gemm_int8 on vpdpbusd. Every other
// kernel is inherited, so it runs the AVX2 code.

class Avx512VnniBackend final : public Avx2Backend {
 public:
  [[nodiscard]] const char* name() const override { return "avx512"; }

  // 4-row x 2-column register tile over 32-wide VNNI k steps (8 int32 ymm
  // accumulators + 2 B vectors + 1 A vector plus the abs/sign temporaries
  // live), mirroring the AVX2 kernel's tile so the only change is the inner
  // step, then one masked step for the k remainder. Everything is exact
  // integer arithmetic, bitwise identical to the scalar reference.
  void gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                 const double* a_scales, const int8_t* Bq, const double* b_scales,
                 double* C, size_t ldc) const override {
    size_t i = 0;
    for (; i + 4 <= mb; i += 4) {
      const int8_t* a0 = Aq + (i + 0) * kb;
      const int8_t* a1 = Aq + (i + 1) * kb;
      const int8_t* a2 = Aq + (i + 2) * kb;
      const int8_t* a3 = Aq + (i + 3) * kb;
      size_t j = 0;
      for (; j + 2 <= nb; j += 2) {
        const int8_t* b0 = Bq + (j + 0) * kb;
        const int8_t* b1 = Bq + (j + 1) * kb;
        __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
        __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
        __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
        __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
        size_t p = 0;
        for (; p + 32 <= kb; p += 32) {
          const __m256i vb0 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0 + p));
          const __m256i vb1 =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b1 + p));
          __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + p));
          c00 = dot_i8_step(c00, va, vb0);
          c01 = dot_i8_step(c01, va, vb1);
          va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + p));
          c10 = dot_i8_step(c10, va, vb0);
          c11 = dot_i8_step(c11, va, vb1);
          va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a2 + p));
          c20 = dot_i8_step(c20, va, vb0);
          c21 = dot_i8_step(c21, va, vb1);
          va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a3 + p));
          c30 = dot_i8_step(c30, va, vb0);
          c31 = dot_i8_step(c31, va, vb1);
        }
        if (p < kb) {
          const size_t rem = kb - p;
          const __m256i vb0 = load_tail_i8(b0 + p, rem);
          const __m256i vb1 = load_tail_i8(b1 + p, rem);
          __m256i va = load_tail_i8(a0 + p, rem);
          c00 = dot_i8_step(c00, va, vb0);
          c01 = dot_i8_step(c01, va, vb1);
          va = load_tail_i8(a1 + p, rem);
          c10 = dot_i8_step(c10, va, vb0);
          c11 = dot_i8_step(c11, va, vb1);
          va = load_tail_i8(a2 + p, rem);
          c20 = dot_i8_step(c20, va, vb0);
          c21 = dot_i8_step(c21, va, vb1);
          va = load_tail_i8(a3 + p, rem);
          c30 = dot_i8_step(c30, va, vb0);
          c31 = dot_i8_step(c31, va, vb1);
        }
        const int32_t s[4][2] = {{hsum_epi32(c00), hsum_epi32(c01)},
                                 {hsum_epi32(c10), hsum_epi32(c11)},
                                 {hsum_epi32(c20), hsum_epi32(c21)},
                                 {hsum_epi32(c30), hsum_epi32(c31)}};
        for (size_t r = 0; r < 4; ++r) {
          C[(i + r) * ldc + j + 0] =
              (a_scales[i + r] * b_scales[j + 0]) * static_cast<double>(s[r][0]);
          C[(i + r) * ldc + j + 1] =
              (a_scales[i + r] * b_scales[j + 1]) * static_cast<double>(s[r][1]);
        }
      }
      for (; j < nb; ++j) {
        const int8_t* b = Bq + j * kb;
        C[(i + 0) * ldc + j] =
            (a_scales[i + 0] * b_scales[j]) * static_cast<double>(dot_i8_vnni(a0, b, kb));
        C[(i + 1) * ldc + j] =
            (a_scales[i + 1] * b_scales[j]) * static_cast<double>(dot_i8_vnni(a1, b, kb));
        C[(i + 2) * ldc + j] =
            (a_scales[i + 2] * b_scales[j]) * static_cast<double>(dot_i8_vnni(a2, b, kb));
        C[(i + 3) * ldc + j] =
            (a_scales[i + 3] * b_scales[j]) * static_cast<double>(dot_i8_vnni(a3, b, kb));
      }
    }
    for (; i < mb; ++i) {
      const int8_t* a = Aq + i * kb;
      for (size_t j = 0; j < nb; ++j) {
        C[i * ldc + j] = (a_scales[i] * b_scales[j]) *
                         static_cast<double>(dot_i8_vnni(a, Bq + j * kb, kb));
      }
    }
  }
};

}  // namespace

const KernelBackend* avx512_backend() {
  // The backend is compiled in; still require the running CPU to report the
  // VNNI feature set, and the AVX2+FMA of its base class, before handing it
  // out (every AVX512VL CPU has AVX2+FMA, but the check keeps the dependency
  // explicit).
  static const bool supported = __builtin_cpu_supports("avx512vnni") &&
                                __builtin_cpu_supports("avx512bw") &&
                                __builtin_cpu_supports("avx512vl") &&
                                avx2_backend() != nullptr;
  if (!supported) return nullptr;
  static const Avx512VnniBackend backend;
  return &backend;
}

}  // namespace dlpic::nn

#else  // no AVX-512 VNNI in this build: selection falls through to AVX2/scalar.

namespace dlpic::nn {

const KernelBackend* avx512_backend() { return nullptr; }

}  // namespace dlpic::nn

#endif
