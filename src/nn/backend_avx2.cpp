#include "nn/backend_avx2.hpp"

#if defined(__AVX2__) && defined(__FMA__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "nn/backend_elementwise.hpp"
#include "nn/backend_scalar.hpp"

namespace dlpic::nn {

namespace {

// ---------------------------------------------------------------------------
// Vector PIC stencils. Four particles per step; int32 node indices (the node
// count fits int32 by Grid1D construction), weights evaluated with the exact
// scalar formulas and operation order. Loop tails delegate to the scalar
// shape templates, so every PIC kernel here is bitwise identical to the
// scalar backend.

/// True when all four x are finite (x - x == 0, ordered: NaN and ±inf give
/// NaN). The push and stagger run a group that fails it on the scalar
/// range, which throws at the first non-finite x, so a NaN or ±inf never
/// reaches a float-to-int conversion or a gather.
inline bool all_finite4(__m256d x) {
  const __m256d zero_diff = _mm256_cmp_pd(_mm256_sub_pd(x, x), _mm256_setzero_pd(), _CMP_EQ_OQ);
  return _mm256_movemask_pd(zero_diff) == 0xF;
}

/// wrap_near for a vector of indices at most one box outside [0, n).
inline __m128i wrap_near32(__m128i i, __m128i n) {
  const __m128i neg = _mm_cmplt_epi32(i, _mm_setzero_si128());
  i = _mm_add_epi32(i, _mm_and_si128(neg, n));
  const __m128i lt = _mm_cmplt_epi32(i, n);
  return _mm_sub_epi32(i, _mm_andnot_si128(lt, n));
}

struct NgpStencil {
  static constexpr int support = 1;
  __m128i node[1];
  __m256d w[1];
  NgpStencil(__m256d xi, __m128i n) {
    const __m256d fl = _mm256_floor_pd(_mm256_add_pd(xi, _mm256_set1_pd(0.5)));
    node[0] = wrap_near32(_mm256_cvttpd_epi32(fl), n);
    w[0] = _mm256_set1_pd(1.0);
  }
};

struct CicStencil {
  static constexpr int support = 2;
  __m128i node[2];
  __m256d w[2];
  CicStencil(__m256d xi, __m128i n) {
    const __m256d fl = _mm256_floor_pd(xi);
    const __m128i i = _mm256_cvttpd_epi32(fl);
    node[0] = wrap_near32(i, n);
    node[1] = wrap_near32(_mm_add_epi32(i, _mm_set1_epi32(1)), n);
    const __m256d frac = _mm256_sub_pd(xi, fl);
    w[0] = _mm256_sub_pd(_mm256_set1_pd(1.0), frac);
    w[1] = frac;
  }
};

struct TscStencil {
  static constexpr int support = 3;
  __m128i node[3];
  __m256d w[3];
  TscStencil(__m256d xi, __m128i n) {
    const __m256d fl = _mm256_floor_pd(_mm256_add_pd(xi, _mm256_set1_pd(0.5)));
    const __m128i i = _mm256_cvttpd_epi32(fl);
    node[0] = wrap_near32(_mm_sub_epi32(i, _mm_set1_epi32(1)), n);
    node[1] = wrap_near32(i, n);
    node[2] = wrap_near32(_mm_add_epi32(i, _mm_set1_epi32(1)), n);
    const __m256d d = _mm256_sub_pd(xi, fl);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d dm = _mm256_sub_pd(half, d);   // 0.5 - d
    const __m256d dp = _mm256_add_pd(half, d);   // 0.5 + d
    // Scalar order: 0.5*(0.5-d)*(0.5-d) evaluates left to right.
    w[0] = _mm256_mul_pd(_mm256_mul_pd(half, dm), dm);
    w[1] = _mm256_sub_pd(_mm256_set1_pd(0.75), _mm256_mul_pd(d, d));
    w[2] = _mm256_mul_pd(_mm256_mul_pd(half, dp), dp);
  }
};

/// Gathers and weight-sums one stencil: matches the scalar gather_at
/// accumulation exactly (acc starts at +0.0 and adds E*w in ascending node
/// order with no FMA — starting from the first product instead would flip
/// the sign bit when E[node]*w is -0.0, since 0.0 + -0.0 == +0.0).
/// The gathers are the masked form with every lane enabled and a zero
/// source: the same instruction and result as _mm256_i32gather_pd, whose
/// GCC 12 wrapper passes an undefined source vector that
/// -Wmaybe-uninitialized flags.
template <class St>
inline __m256d gather_stencil(const double* E, const St& st) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d acc = _mm256_setzero_pd();
  for (int s = 0; s < St::support; ++s)
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_mask_i32gather_pd(_mm256_setzero_pd(), E, st.node[s], all, 8),
                           st.w[s]));
  return acc;
}

template <class St, pic::Shape S>
void gather_range_avx2(const double* E, const double* x, double* out, size_t lo,
                       size_t hi, double inv_dx, long ncells) {
  const __m128i n = _mm_set1_epi32(static_cast<int>(ncells));
  const __m256d vinv = _mm256_set1_pd(inv_dx);
  size_t p = lo;
  for (; p + 4 <= hi; p += 4) {
    const __m256d xi = _mm256_mul_pd(_mm256_loadu_pd(x + p), vinv);
    _mm256_storeu_pd(out + p, gather_stencil(E, St(xi, n)));
  }
  backend_detail::gather_range<S>(E, x, out, p, hi, inv_dx, ncells);
}

template <class St, pic::Shape S>
void stagger_range_avx2(const double* E, const double* x, double* v, size_t lo,
                        size_t hi, double inv_dx, long ncells, double qm_half_dt) {
  const __m128i n = _mm_set1_epi32(static_cast<int>(ncells));
  const __m256d vinv = _mm256_set1_pd(inv_dx);
  const __m256d vqm = _mm256_set1_pd(qm_half_dt);
  size_t p = lo;
  for (; p + 4 <= hi; p += 4) {
    const __m256d xv = _mm256_loadu_pd(x + p);
    if (!all_finite4(xv)) {
      backend_detail::stagger_range<S>(E, x, v, p, p + 4, inv_dx, ncells, qm_half_dt);
      continue;
    }
    const __m256d Ep = gather_stencil(E, St(_mm256_mul_pd(xv, vinv), n));
    _mm256_storeu_pd(v + p, _mm256_add_pd(_mm256_loadu_pd(v + p), _mm256_mul_pd(vqm, Ep)));
  }
  backend_detail::stagger_range<S>(E, x, v, p, hi, inv_dx, ncells, qm_half_dt);
}

template <class St, pic::Shape S>
void leapfrog_range_avx2(const double* E, double* x, double* v, size_t lo, size_t hi,
                         double inv_dx, long ncells, double qm_dt, double dt,
                         double length) {
  const __m128i n = _mm_set1_epi32(static_cast<int>(ncells));
  const __m256d vinv = _mm256_set1_pd(inv_dx);
  const __m256d vqm = _mm256_set1_pd(qm_dt);
  const __m256d vdt = _mm256_set1_pd(dt);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vlen = _mm256_set1_pd(length);
  size_t p = lo;
  for (; p + 4 <= hi; p += 4) {
    const __m256d xv = _mm256_loadu_pd(x + p);
    if (!all_finite4(xv)) {
      backend_detail::leapfrog_range<S>(E, x, v, p, p + 4, inv_dx, ncells, qm_dt, dt, length);
      continue;
    }
    const __m256d Ep = gather_stencil(E, St(_mm256_mul_pd(xv, vinv), n));
    const __m256d vn = _mm256_add_pd(_mm256_loadu_pd(v + p), _mm256_mul_pd(vqm, Ep));
    _mm256_storeu_pd(v + p, vn);
    // Drift. When all four lanes land in [0, L) (ordered compares: NaN is
    // out), pic::wrap_periodic would return them unchanged, so store the
    // vector; otherwise wrap each lane with that scalar helper.
    const __m256d xn = _mm256_add_pd(xv, _mm256_mul_pd(vn, vdt));
    const __m256d in_box = _mm256_and_pd(_mm256_cmp_pd(xn, vzero, _CMP_GE_OQ),
                                         _mm256_cmp_pd(xn, vlen, _CMP_LT_OQ));
    if (_mm256_movemask_pd(in_box) == 0xF) {
      _mm256_storeu_pd(x + p, xn);
    } else {
      alignas(32) double xs[4];
      _mm256_store_pd(xs, xn);
      for (int lane = 0; lane < 4; ++lane) x[p + lane] = pic::wrap_periodic(xs[lane], length);
    }
  }
  backend_detail::leapfrog_range<S>(E, x, v, p, hi, inv_dx, ncells, qm_dt, dt, length);
}

template <class St, pic::Shape S>
void deposit_range_avx2(double* buf, const double* x, size_t lo, size_t hi,
                        double inv_dx, long ncells, double value) {
  const __m128i n = _mm_set1_epi32(static_cast<int>(ncells));
  const __m256d vinv = _mm256_set1_pd(inv_dx);
  size_t p = lo;
  for (; p + 4 <= hi; p += 4) {
    const __m256d xi = _mm256_mul_pd(_mm256_loadu_pd(x + p), vinv);
    const St st(xi, n);
    alignas(16) int idx[St::support][4];
    alignas(32) double w[St::support][4];
    for (int s = 0; s < St::support; ++s) {
      _mm_store_si128(reinterpret_cast<__m128i*>(idx[s]), st.node[s]);
      _mm256_store_pd(w[s], st.w[s]);
    }
    // Scatter serially in ascending particle order — identical to the
    // scalar loop, so per-worker deposit buffers stay bitwise reproducible.
    for (int lane = 0; lane < 4; ++lane)
      for (int s = 0; s < St::support; ++s)
        buf[static_cast<size_t>(idx[s][lane])] += value * w[s][lane];
  }
  backend_detail::deposit_range<S>(buf, x, p, hi, inv_dx, ncells, value);
}

/// NGP phase-space binning, four particles per step. A group whose x are
/// all in [0, length) (ordered compares: NaN is out) and whose v are not
/// NaN computes its bins with the scalar formulas: the v clamp is min/max
/// plus a count of the out-of-range lanes (±inf clamps like any other
/// out-of-range v), the bin indices truncate and cap at the last bin, and
/// the lanes add 1.0 in ascending order. Any other group, and the tail, run
/// the scalar reference, which wraps x and applies the non-finite rule, so
/// the histogram, the clamp count and any exception match the scalar
/// backend exactly.
size_t bin_ngp_avx2(const KernelBackend::PhaseSpaceGrid& g, const double* x,
                    const double* v, size_t n, double* hist) {
  // Bin indices are int32 lanes.
  if (g.nx * g.nv > static_cast<size_t>(INT32_MAX))
    return backend_detail::bin_ngp_range(g, x, v, 0, n, hist);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d len = _mm256_set1_pd(g.length);
  const __m256d vmin = _mm256_set1_pd(g.vmin);
  const __m256d vmax = _mm256_set1_pd(g.vmax);
  const __m256d inv_dx = _mm256_set1_pd(g.inv_dx);
  const __m256d inv_dv = _mm256_set1_pd(g.inv_dv);
  const __m128i last_ix = _mm_set1_epi32(static_cast<int>(g.nx - 1));
  const __m128i last_iv = _mm_set1_epi32(static_cast<int>(g.nv - 1));
  const __m128i nx = _mm_set1_epi32(static_cast<int>(g.nx));
  size_t clamped = 0;
  size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const __m256d xv = _mm256_loadu_pd(x + p);
    const __m256d vv = _mm256_loadu_pd(v + p);
    const __m256d in_box = _mm256_and_pd(_mm256_cmp_pd(xv, zero, _CMP_GE_OQ),
                                         _mm256_cmp_pd(xv, len, _CMP_LT_OQ));
    const __m256d nan_v = _mm256_cmp_pd(vv, vv, _CMP_UNORD_Q);
    if (_mm256_movemask_pd(in_box) != 0xF || _mm256_movemask_pd(nan_v) != 0) {
      clamped += backend_detail::bin_ngp_range(g, x, v, p, p + 4, hist);
      continue;
    }
    const __m256d out = _mm256_or_pd(_mm256_cmp_pd(vv, vmin, _CMP_LT_OQ),
                                     _mm256_cmp_pd(vv, vmax, _CMP_GT_OQ));
    clamped += static_cast<size_t>(__builtin_popcount(_mm256_movemask_pd(out)));
    const __m256d vp = _mm256_min_pd(_mm256_max_pd(vv, vmin), vmax);
    const __m128i ix = _mm_min_epi32(_mm256_cvttpd_epi32(_mm256_mul_pd(xv, inv_dx)), last_ix);
    const __m128i iv = _mm_min_epi32(
        _mm256_cvttpd_epi32(_mm256_mul_pd(_mm256_sub_pd(vp, vmin), inv_dv)), last_iv);
    alignas(16) int32_t idx[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(idx),
                    _mm_add_epi32(_mm_mullo_epi32(iv, nx), ix));
    for (int lane = 0; lane < 4; ++lane) hist[idx[lane]] += 1.0;
  }
  return clamped + backend_detail::bin_ngp_range(g, x, v, p, n, hist);
}

// ---------------------------------------------------------------------------
// Interleaved-complex FFT building blocks. One __m256d holds two complexes
// [r0 i0 r1 i1]. Stage strides (half = len/2, q = len/4) are powers of two,
// so the vector bodies below never need a scalar tail: half >= 2 in every
// twiddled radix-2 stage, and the radix-4 kernel delegates q == 1 to the
// scalar reference.

/// Elementwise complex product a[j] * b[j] over two packed complexes. The
/// four products match the scalar reference exactly; addsub merely commutes
/// the imaginary-part addition, which IEEE-754 addition permits bitwise.
inline __m256d cmul2(__m256d a, __m256d b) {
  const __m256d br = _mm256_movedup_pd(b);          // [br0 br0 br1 br1]
  const __m256d bi = _mm256_permute_pd(b, 0xF);     // [bi0 bi0 bi1 bi1]
  const __m256d aswap = _mm256_permute_pd(a, 0x5);  // [ai0 ar0 ai1 ar1]
  return _mm256_addsub_pd(_mm256_mul_pd(a, br), _mm256_mul_pd(aswap, bi));
}

// ---------------------------------------------------------------------------
// Int8 GEMM building blocks. Codes are in [-127, 127] (never -128, enforced
// by the quantizer's clamp), so |a| fits an unsigned byte and a pairwise
// maddubs product is at most 2 * 127 * 127 = 32258 < 32767 — no saturation.
// The signed x signed product a*b is computed as |a| * sign(b, a): maddubs
// wants one unsigned operand, and transferring a's sign onto b keeps the
// exact integer value. madd_epi16 against ones widens the 16 int16 pairwise
// sums into 8 exact int32 lanes.

/// Sum of the 8 int32 lanes (exact; order irrelevant for integers).
inline int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// One 32-wide quadword of the int8 dot product: acc += sum_over_32(a * b)
/// spread across 8 int32 lanes.
inline __m256i dot_i8_step(__m256i acc, __m256i va, __m256i vb) {
  const __m256i prod16 = _mm256_maddubs_epi16(_mm256_abs_epi8(va), _mm256_sign_epi8(vb, va));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(prod16, _mm256_set1_epi16(1)));
}

/// Full int8 dot product of two k-contiguous rows (vector body + exact
/// scalar tail). Used by the gemm_int8 edge loops.
inline int32_t dot_i8_avx2(const int8_t* a, const int8_t* b, size_t k) {
  __m256i acc = _mm256_setzero_si256();
  size_t p = 0;
  for (; p + 32 <= k; p += 32)
    acc = dot_i8_step(acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)),
                      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + p)));
  int32_t s = hsum_epi32(acc);
  for (; p < k; ++p) s += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  return s;
}

// ---------------------------------------------------------------------------
// Int16 GEMM building blocks. Codes are in [-32767, 32767] (never -32768),
// so one madd_epi16 pair sum is at most 2 * 32767^2 = 2147352578 < 2^31 - 1
// — exact int32 with no saturation. Each pairwise int32 is widened to int64
// before accumulating, which keeps the whole dot product exact for any k
// the callers' kQuantizedGemmInt16MaxDepth bound admits.

/// Sum of the 4 int64 lanes (exact; order irrelevant for integers).
inline int64_t hsum_epi64(__m256i v) {
  __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
  return _mm_cvtsi128_si64(s);
}

/// One 16-wide step of the int16 dot product: acc (4 int64 lanes) += the
/// step's 8 exact pairwise int32 sums, widened before accumulation.
inline __m256i dot_i16_step(__m256i acc, __m256i va, __m256i vb) {
  const __m256i pair32 = _mm256_madd_epi16(va, vb);
  const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(pair32));
  const __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(pair32, 1));
  return _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi));
}

/// Full int16 dot product of two k-contiguous rows (vector body + exact
/// scalar tail). Used by the gemm_int16 edge loops.
inline int64_t dot_i16_avx2(const int16_t* a, const int16_t* b, size_t k) {
  __m256i acc = _mm256_setzero_si256();
  size_t p = 0;
  for (; p + 16 <= k; p += 16)
    acc = dot_i16_step(acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)),
                       _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + p)));
  int64_t s = hsum_epi64(acc);
  for (; p < k; ++p) s += static_cast<int64_t>(a[p]) * static_cast<int64_t>(b[p]);
  return s;
}

// ---------------------------------------------------------------------------
// Skinny NT GEMM: B rows read in place, transposed in registers.

/// In-register 4x4 transpose: r[i] holds row i's four consecutive k values;
/// afterwards col[q] holds the four rows' values at k offset q.
inline void transpose4x4(__m256d r0, __m256d r1, __m256d r2, __m256d r3, __m256d col[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  col[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  col[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  col[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  col[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// MR rows of `a` (row stride kb) against G groups of 4 output columns
/// (4*G row streams of B): per lane the exact sequence of gemm_block,
/// c = fmadd(set1(a[p]), b, c) over ascending p, then C += c. Each 4x4 tile
/// of B is loaded and transposed once and feeds all MR rows. A 4-group of
/// k that is all ±0 in every row (NaN compares unequal, so it is never
/// skipped) is skipped without loading its B columns: for finite b,
/// fmadd(±0, b, c) equals c as a real number, so c can differ from the
/// unskipped sequence only in the sign of a zero, which C += c erases
/// unless C is −0 (see KernelBackend::gemm_nt_block).
template <int MR, int G>
struct NtStreams {
  const double* b[4 * G];
  __m256d c[MR][G];

  NtStreams(const double* B, size_t ldb) {
    for (int r = 0; r < 4 * G; ++r) b[r] = B + static_cast<size_t>(r) * ldb;
    for (int i = 0; i < MR; ++i)
      for (int g = 0; g < G; ++g) c[i][g] = _mm256_setzero_pd();
  }

  /// The fmadd terms of the 4-group at k offset p.
  inline void group(size_t kb, const double* a, size_t p) {
    __m256d col[G][4];
    for (int g = 0; g < G; ++g)
      transpose4x4(_mm256_loadu_pd(b[4 * g] + p), _mm256_loadu_pd(b[4 * g + 1] + p),
                   _mm256_loadu_pd(b[4 * g + 2] + p), _mm256_loadu_pd(b[4 * g + 3] + p),
                   col[g]);
    for (int q = 0; q < 4; ++q) {
      for (int i = 0; i < MR; ++i) {
        const __m256d av = _mm256_set1_pd(a[i * kb + p + q]);
        for (int g = 0; g < G; ++g) c[i][g] = _mm256_fmadd_pd(av, col[g][q], c[i][g]);
      }
    }
  }

  /// The k tail after the last whole group (never skipped), then C += c.
  inline void finish(size_t kb, const double* a, double* C, size_t ldc) {
    for (size_t p = kb & ~size_t{3}; p < kb; ++p) {
      for (int i = 0; i < MR; ++i) {
        const __m256d av = _mm256_set1_pd(a[i * kb + p]);
        for (int g = 0; g < G; ++g)
          c[i][g] = _mm256_fmadd_pd(
              av, _mm256_set_pd(b[4 * g + 3][p], b[4 * g + 2][p], b[4 * g + 1][p], b[4 * g][p]),
              c[i][g]);
      }
    }
    for (int i = 0; i < MR; ++i) {
      double* ci = C + i * ldc;
      for (int g = 0; g < G; ++g)
        _mm256_storeu_pd(ci + 4 * g, _mm256_add_pd(_mm256_loadu_pd(ci + 4 * g), c[i][g]));
    }
  }
};

/// Mask of the lanes of the 4-group at k offset p that are nonzero (or
/// NaN) in any of the MR rows.
template <int MR>
inline int nonzero_lanes(size_t kb, const double* a, size_t p) {
  const __m256d zero = _mm256_setzero_pd();
  int nonzero = 0;
  for (int i = 0; i < MR; ++i)
    nonzero |= _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(a + i * kb + p), zero, _CMP_NEQ_UQ));
  return nonzero;
}

/// Dense k-blocks: every stream re-tests each group.
template <int MR, int G>
inline void gemm_nt_groups(size_t kb, const double* a, const double* B, size_t ldb,
                           double* C, size_t ldc) {
  NtStreams<MR, G> s(B, ldb);
  for (size_t p = 0; p + 4 <= kb; p += 4)
    if (nonzero_lanes<MR>(kb, a, p) != 0) s.group(kb, a, p);
  s.finish(kb, a, C, ldc);
}

/// std::min with internal linkage: at -O0 std::min itself would be a weak
/// std:: copy compiled with -mavx2 (util/inline.hpp). It keeps std::min's
/// signature, so optimized builds compile it to the same code.
constexpr const size_t& min_size(const size_t& a, const size_t& b) { return b < a ? b : a; }

/// Sparse k-blocks: the stream walks the listed groups only, and prefetches
/// the listed offsets of the first `next_rows` B rows after its own, which
/// the next stream reads.
template <int MR, int G>
inline void gemm_nt_listed(size_t kb, const double* a, const uint16_t* list, size_t count,
                           const double* B, size_t ldb, size_t next_rows, double* C,
                           size_t ldc) {
  NtStreams<MR, G> s(B, ldb);
  const double* next = next_rows > 0 ? B + 4 * G * ldb : nullptr;
  for (size_t t = 0; t < count; ++t) {
    const size_t p = list[t];
    for (size_t r = 0; r < next_rows; ++r)
      _mm_prefetch(reinterpret_cast<const char*>(next + r * ldb + p), _MM_HINT_T0);
    s.group(kb, a, p);
  }
  s.finish(kb, a, C, ldc);
}

/// Most 4-groups a k-block lists (math::gemm's k-blocks are 256 deep).
constexpr size_t kMaxListedGroups = 64;

/// The fmadd lanes of gemm_nt_block for one row count: the first nb & ~3
/// columns, 8 row streams of B at a time, then 4. The k-block's nonzero
/// groups are listed once; when fewer than half are nonzero every stream
/// walks that list, else each stream re-tests every group (walking a list
/// over dense input measured slower). Both run the same groups in the same
/// order.
template <int MR>
void gemm_nt_rows(size_t nb, size_t kb, const double* a, const double* B, size_t ldb,
                  double* C, size_t ldc) {
  const size_t nb4 = nb & ~size_t{3};
  const size_t groups = kb / 4;
  uint16_t list[kMaxListedGroups] = {};
  size_t count = 0;
  // Listing stops as soon as half of the groups are nonzero.
  bool sparse = groups > 0 && groups <= kMaxListedGroups;
  for (size_t p = 0; sparse && p + 4 <= kb; p += 4) {
    list[count] = static_cast<uint16_t>(p);
    count += nonzero_lanes<MR>(kb, a, p) != 0;
    sparse = 2 * count < groups;
  }
  size_t j = 0;
  if (sparse) {
    for (; j + 8 <= nb4; j += 8)
      gemm_nt_listed<MR, 2>(kb, a, list, count, B + j * ldb, ldb,
                            min_size(8, nb4 - j - 8), C + j, ldc);
    for (; j < nb4; j += 4)
      gemm_nt_listed<MR, 1>(kb, a, list, count, B + j * ldb, ldb,
                            min_size(4, nb4 - j - 4), C + j, ldc);
    return;
  }
  for (; j + 8 <= nb4; j += 8) gemm_nt_groups<MR, 2>(kb, a, B + j * ldb, ldb, C + j, ldc);
  for (; j < nb4; j += 4) gemm_nt_groups<MR, 1>(kb, a, B + j * ldb, ldb, C + j, ldc);
}

// ---------------------------------------------------------------------------
// Skinny NN GEMM: B is W^T, so each live k index is one contiguous run of
// weights across the output columns.

/// Deepest run of k one live list covers (math::gemm's k-blocks are 256
/// deep, so its calls list each block once).
constexpr size_t kNnListDepth = 256;

/// Widest column strip of the one-row kernel's accumulator array.
constexpr size_t kNnStrip = 1024;

/// The k indices of [p0, p1) that are nonzero (or NaN) in any of the MR
/// rows of `a` (row stride kb), ascending, with the rows' values packed per
/// index: entry t, at k index p0 + p[t], holds row i's value at
/// a[t * MR + i]. Indices that are ±0 in every row are left out.
template <int MR>
struct NnLive {
  double a[kNnListDepth * MR];
  uint16_t p[kNnListDepth];
  size_t count = 0;

  NnLive(size_t kb, const double* rows, size_t p0, size_t p1) {
    const __m256d zero = _mm256_setzero_pd();
    size_t q = p0;
    for (; q + 4 <= p1; q += 4) {
      int nonzero = 0;
      for (int i = 0; i < MR; ++i)
        nonzero |= _mm256_movemask_pd(
            _mm256_cmp_pd(_mm256_loadu_pd(rows + i * kb + q), zero, _CMP_NEQ_UQ));
      for (; nonzero != 0; nonzero &= nonzero - 1) add(kb, rows, p0, q + __builtin_ctz(nonzero));
    }
    for (; q < p1; ++q) {
      bool nonzero = false;
      for (int i = 0; i < MR; ++i) nonzero |= rows[i * kb + q] != 0.0;
      if (nonzero) add(kb, rows, p0, q);
    }
  }

  void add(size_t kb, const double* rows, size_t p0, size_t q) {
    for (int i = 0; i < MR; ++i) a[count * MR + i] = rows[i * kb + q];
    p[count++] = static_cast<uint16_t>(q - p0);
  }
};

/// One row (a batch-1 forward) against nb columns: per strip of up to
/// kNnStrip columns, a fresh accumulator array takes the live weight rows,
/// four per pass, in ascending p — fmadd on the columns below nb & ~3,
/// mul-then-add beyond — and is then added to C. The rows stream in
/// order, so the hardware prefetcher keeps up (software prefetches of the
/// next rows measured slower).
void gemm_nn_row(size_t nb, size_t kb, const double* a, const double* B, size_t ldb,
                 double* C) {
  const size_t nb4 = nb & ~size_t{3};
  alignas(32) double acc[kNnStrip];
  for (size_t j0 = 0; j0 < nb; j0 += kNnStrip) {
    const size_t w = min_size(kNnStrip, nb - j0);
    const size_t w4 = min_size(w, nb4 - j0);
    for (size_t j = 0; j < w; ++j) acc[j] = 0.0;
    for (size_t p0 = 0; p0 < kb; p0 += kNnListDepth) {
      const NnLive<1> live(kb, a, p0, min_size(kb, p0 + kNnListDepth));
      const double* Bs = B + p0 * ldb + j0;
      size_t t = 0;
      for (; t + 4 <= live.count; t += 4) {
        const double* b0 = Bs + live.p[t] * ldb;
        const double* b1 = Bs + live.p[t + 1] * ldb;
        const double* b2 = Bs + live.p[t + 2] * ldb;
        const double* b3 = Bs + live.p[t + 3] * ldb;
        const __m256d a0 = _mm256_set1_pd(live.a[t]);
        const __m256d a1 = _mm256_set1_pd(live.a[t + 1]);
        const __m256d a2 = _mm256_set1_pd(live.a[t + 2]);
        const __m256d a3 = _mm256_set1_pd(live.a[t + 3]);
        size_t j = 0;
        for (; j < w4; j += 4) {
          __m256d c = _mm256_load_pd(acc + j);
          c = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + j), c);
          c = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j), c);
          c = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j), c);
          c = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j), c);
          _mm256_store_pd(acc + j, c);
        }
        for (; j < w; ++j) {
          double c = acc[j];
          c += live.a[t] * b0[j];
          c += live.a[t + 1] * b1[j];
          c += live.a[t + 2] * b2[j];
          c += live.a[t + 3] * b3[j];
          acc[j] = c;
        }
      }
      for (; t < live.count; ++t) {
        const double* b = Bs + live.p[t] * ldb;
        const __m256d av = _mm256_set1_pd(live.a[t]);
        size_t j = 0;
        for (; j < w4; j += 4)
          _mm256_store_pd(acc + j,
                          _mm256_fmadd_pd(av, _mm256_loadu_pd(b + j), _mm256_load_pd(acc + j)));
        for (; j < w; ++j) acc[j] += live.a[t] * b[j];
      }
    }
    double* c = C + j0;
    for (size_t j = 0; j < w; ++j) c[j] += acc[j];
  }
}

/// MR rows' accumulators over 4*G columns: c = fmadd(a_i[p], b, c) per
/// lane, one term per live k index in ascending order, then C += c.
template <int MR, int G>
struct NnTile {
  __m256d c[MR][G];

  NnTile() {
    for (int i = 0; i < MR; ++i)
      for (int g = 0; g < G; ++g) c[i][g] = _mm256_setzero_pd();
  }

  /// The terms of one weight row `b`, row i's value at av[i].
  inline void term(const double* b, const double* av) {
    __m256d bv[G];
    for (int g = 0; g < G; ++g) bv[g] = _mm256_loadu_pd(b + 4 * g);
    for (int i = 0; i < MR; ++i) {
      const __m256d x = _mm256_set1_pd(av[i]);
      for (int g = 0; g < G; ++g) c[i][g] = _mm256_fmadd_pd(x, bv[g], c[i][g]);
    }
  }

  inline void store(double* C, size_t ldc) {
    for (int i = 0; i < MR; ++i)
      for (int g = 0; g < G; ++g) {
        double* ci = C + i * ldc + 4 * g;
        _mm256_storeu_pd(ci, _mm256_add_pd(_mm256_loadu_pd(ci), c[i][g]));
      }
  }
};

/// Live rows a strip prefetches ahead. A strip reads one line per live row
/// at a stride of a whole weight row, which the hardware prefetchers do not
/// follow: without it a dense 32-row conv forward ran 20% slower than on
/// the packed path, with it 4%.
constexpr size_t kNnPrefetchRows = 8;

/// One strip of 4*G columns for MR rows over a listed k-block.
template <int MR, int G>
inline void nn_strip_listed(const NnLive<MR>& live, const double* B, size_t ldb, double* C,
                            size_t ldc) {
  NnTile<MR, G> tile;
  for (size_t t = 0; t < live.count; ++t) {
    const size_t ahead = t + kNnPrefetchRows < live.count ? t + kNnPrefetchRows : t;
    _mm_prefetch(reinterpret_cast<const char*>(B + live.p[ahead] * ldb), _MM_HINT_T0);
    tile.term(B + live.p[t] * ldb, live.a + t * MR);
  }
  tile.store(C, ldc);
}

/// The fmadd columns (below nb & ~3) of 2 to 4 rows over one k-block of at
/// most kNnListDepth, 8 then 4 per strip.
template <int MR>
void gemm_nn_rows(size_t nb, size_t kb, const double* a, const double* B, size_t ldb,
                  double* C, size_t ldc) {
  const size_t nb4 = nb & ~size_t{3};
  const NnLive<MR> live(kb, a, 0, kb);
  size_t j = 0;
  for (; j + 8 <= nb4; j += 8) nn_strip_listed<MR, 2>(live, B + j, ldb, C + j, ldc);
  for (; j < nb4; j += 4) nn_strip_listed<MR, 1>(live, B + j, ldb, C + j, ldc);
}

}  // namespace

// ---------------------------------------------------------------------------
// The backend.

const char* Avx2Backend::name() const { return "avx2"; }

// 8-column FMA micro-kernel over 4-row register sub-tiles (11 live ymm:
// 8 accumulators + 2 B vectors + 1 A broadcast). Remainders fall back to
// the plain accumulate loops.
void Avx2Backend::gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                             const double* Bpanel, double* C, size_t ldc) const {
  size_t i = 0;
  for (; i + 4 <= mb; i += 4) {
    const double* a0 = Apanel + (i + 0) * kb;
    const double* a1 = Apanel + (i + 1) * kb;
    const double* a2 = Apanel + (i + 2) * kb;
    const double* a3 = Apanel + (i + 3) * kb;
    size_t j = 0;
    for (; j + 8 <= nb; j += 8) {
      __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
      __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
      __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
      __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
      for (size_t p = 0; p < kb; ++p) {
        const double* brow = Bpanel + p * nb + j;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        __m256d av = _mm256_set1_pd(a0[p]);
        c00 = _mm256_fmadd_pd(av, b0, c00);
        c01 = _mm256_fmadd_pd(av, b1, c01);
        av = _mm256_set1_pd(a1[p]);
        c10 = _mm256_fmadd_pd(av, b0, c10);
        c11 = _mm256_fmadd_pd(av, b1, c11);
        av = _mm256_set1_pd(a2[p]);
        c20 = _mm256_fmadd_pd(av, b0, c20);
        c21 = _mm256_fmadd_pd(av, b1, c21);
        av = _mm256_set1_pd(a3[p]);
        c30 = _mm256_fmadd_pd(av, b0, c30);
        c31 = _mm256_fmadd_pd(av, b1, c31);
      }
      double* c0 = C + (i + 0) * ldc + j;
      double* c1 = C + (i + 1) * ldc + j;
      double* c2 = C + (i + 2) * ldc + j;
      double* c3 = C + (i + 3) * ldc + j;
      _mm256_storeu_pd(c0, _mm256_add_pd(_mm256_loadu_pd(c0), c00));
      _mm256_storeu_pd(c0 + 4, _mm256_add_pd(_mm256_loadu_pd(c0 + 4), c01));
      _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), c10));
      _mm256_storeu_pd(c1 + 4, _mm256_add_pd(_mm256_loadu_pd(c1 + 4), c11));
      _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), c20));
      _mm256_storeu_pd(c2 + 4, _mm256_add_pd(_mm256_loadu_pd(c2 + 4), c21));
      _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), c30));
      _mm256_storeu_pd(c3 + 4, _mm256_add_pd(_mm256_loadu_pd(c3 + 4), c31));
    }
    for (; j + 4 <= nb; j += 4) {
      __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
      __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
      for (size_t p = 0; p < kb; ++p) {
        const __m256d b0 = _mm256_loadu_pd(Bpanel + p * nb + j);
        c0 = _mm256_fmadd_pd(_mm256_set1_pd(a0[p]), b0, c0);
        c1 = _mm256_fmadd_pd(_mm256_set1_pd(a1[p]), b0, c1);
        c2 = _mm256_fmadd_pd(_mm256_set1_pd(a2[p]), b0, c2);
        c3 = _mm256_fmadd_pd(_mm256_set1_pd(a3[p]), b0, c3);
      }
      double* r0 = C + (i + 0) * ldc + j;
      double* r1 = C + (i + 1) * ldc + j;
      double* r2 = C + (i + 2) * ldc + j;
      double* r3 = C + (i + 3) * ldc + j;
      _mm256_storeu_pd(r0, _mm256_add_pd(_mm256_loadu_pd(r0), c0));
      _mm256_storeu_pd(r1, _mm256_add_pd(_mm256_loadu_pd(r1), c1));
      _mm256_storeu_pd(r2, _mm256_add_pd(_mm256_loadu_pd(r2), c2));
      _mm256_storeu_pd(r3, _mm256_add_pd(_mm256_loadu_pd(r3), c3));
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
    const double* a = Apanel + i * kb;
    size_t j = 0;
    for (; j + 4 <= nb; j += 4) {
      __m256d c0 = _mm256_setzero_pd();
      for (size_t p = 0; p < kb; ++p)
        c0 = _mm256_fmadd_pd(_mm256_set1_pd(a[p]), _mm256_loadu_pd(Bpanel + p * nb + j), c0);
      double* r = C + i * ldc + j;
      _mm256_storeu_pd(r, _mm256_add_pd(_mm256_loadu_pd(r), c0));
    }
    for (; j < nb; ++j) {
      double acc = 0;
      for (size_t p = 0; p < kb; ++p) acc += a[p] * Bpanel[p * nb + j];
      C[i * ldc + j] += acc;
    }
  }
}

// Mirrors gemm_block above column for column: the first nb & ~3 columns
// take the fmadd lanes, in groups of up to 4 rows, the rest the plain
// mul-then-add tail.
void Avx2Backend::gemm_nt_block(size_t mr, size_t nb, size_t kb, const double* a,
                                const double* B, size_t ldb, double* C,
                                size_t ldc) const {
  for (size_t i = 0; i < mr; i += 4) {
    const double* ai = a + i * kb;
    double* Ci = C + i * ldc;
    switch (mr - i) {
      case 1: gemm_nt_rows<1>(nb, kb, ai, B, ldb, Ci, ldc); break;
      case 2: gemm_nt_rows<2>(nb, kb, ai, B, ldb, Ci, ldc); break;
      case 3: gemm_nt_rows<3>(nb, kb, ai, B, ldb, Ci, ldc); break;
      default: gemm_nt_rows<4>(nb, kb, ai, B, ldb, Ci, ldc); break;
    }
  }
  const size_t j = nb & ~size_t{3};
  KernelBackend::gemm_nt_block(mr, nb - j, kb, a, B + j * ldb, ldb, C + j, ldc);
}

// One row walks the whole width; 2 to 4 rows are register-blocked on the
// fmadd columns, and the columns past nb & ~3 take the reference's
// mul-then-add. A panel deeper than one list (never one of math::gemm's)
// runs a row at a time.
void Avx2Backend::gemm_nn_block(size_t mr, size_t nb, size_t kb, const double* a,
                                const double* B, size_t ldb, double* C,
                                size_t ldc) const {
  if (mr == 1 || kb > kNnListDepth) {
    for (size_t i = 0; i < mr; ++i) gemm_nn_row(nb, kb, a + i * kb, B, ldb, C + i * ldc);
    return;
  }
  for (size_t i = 0; i < mr; i += 4) {
    const double* ai = a + i * kb;
    double* Ci = C + i * ldc;
    switch (mr - i) {
      case 1: gemm_nn_row(nb & ~size_t{3}, kb, ai, B, ldb, Ci); break;
      case 2: gemm_nn_rows<2>(nb, kb, ai, B, ldb, Ci, ldc); break;
      case 3: gemm_nn_rows<3>(nb, kb, ai, B, ldb, Ci, ldc); break;
      default: gemm_nn_rows<4>(nb, kb, ai, B, ldb, Ci, ldc); break;
    }
  }
  const size_t j = nb & ~size_t{3};
  KernelBackend::gemm_nn_block(mr, nb - j, kb, a, B + j, ldb, C + j, ldc);
}

// 4-row x 2-column register tile over 32-wide k steps (8 int32
// accumulators + 2 B vectors + 1 A vector live), mirroring the f64
// micro-kernel's 4-row structure. Per 32-step each int32 lane gains at
// most 4 * 127^2 = 64516, so lane overflow needs k > ~1M — far beyond the
// kQuantizedGemmMaxDepth bound callers enforce. Remainders use the shared
// single-dot helper; everything is exact integer arithmetic, so this
// kernel is bitwise identical to the scalar reference.
void Avx2Backend::gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                            const double* a_scales, const int8_t* Bq,
                            const double* b_scales, double* C, size_t ldc) const {
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
        const __m256i vb0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0 + p));
        const __m256i vb1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b1 + p));
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
      int32_t s[4][2] = {{hsum_epi32(c00), hsum_epi32(c01)},
                         {hsum_epi32(c10), hsum_epi32(c11)},
                         {hsum_epi32(c20), hsum_epi32(c21)},
                         {hsum_epi32(c30), hsum_epi32(c31)}};
      for (; p < kb; ++p) {
        const int32_t bb0 = b0[p], bb1 = b1[p];
        s[0][0] += a0[p] * bb0; s[0][1] += a0[p] * bb1;
        s[1][0] += a1[p] * bb0; s[1][1] += a1[p] * bb1;
        s[2][0] += a2[p] * bb0; s[2][1] += a2[p] * bb1;
        s[3][0] += a3[p] * bb0; s[3][1] += a3[p] * bb1;
      }
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
          (a_scales[i + 0] * b_scales[j]) * static_cast<double>(dot_i8_avx2(a0, b, kb));
      C[(i + 1) * ldc + j] =
          (a_scales[i + 1] * b_scales[j]) * static_cast<double>(dot_i8_avx2(a1, b, kb));
      C[(i + 2) * ldc + j] =
          (a_scales[i + 2] * b_scales[j]) * static_cast<double>(dot_i8_avx2(a2, b, kb));
      C[(i + 3) * ldc + j] =
          (a_scales[i + 3] * b_scales[j]) * static_cast<double>(dot_i8_avx2(a3, b, kb));
    }
  }
  for (; i < mb; ++i) {
    const int8_t* a = Aq + i * kb;
    for (size_t j = 0; j < nb; ++j) {
      C[i * ldc + j] = (a_scales[i] * b_scales[j]) *
                       static_cast<double>(dot_i8_avx2(a, Bq + j * kb, kb));
    }
  }
}

// 2-row x 2-column register tile over 16-wide k steps (4 int64
// accumulators + 2 B vectors + 1 A vector plus the madd/widen temporaries
// live). Everything is exact integer arithmetic, so this kernel is
// bitwise identical to the scalar reference in backend.cpp.
void Avx2Backend::gemm_int16(size_t mb, size_t nb, size_t kb, const int16_t* Aq,
                             const double* a_scales, const int16_t* Bq,
                             const double* b_scales, double* C, size_t ldc) const {
  size_t i = 0;
  for (; i + 2 <= mb; i += 2) {
    const int16_t* a0 = Aq + (i + 0) * kb;
    const int16_t* a1 = Aq + (i + 1) * kb;
    size_t j = 0;
    for (; j + 2 <= nb; j += 2) {
      const int16_t* b0 = Bq + (j + 0) * kb;
      const int16_t* b1 = Bq + (j + 1) * kb;
      __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
      __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
      size_t p = 0;
      for (; p + 16 <= kb; p += 16) {
        const __m256i vb0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0 + p));
        const __m256i vb1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b1 + p));
        __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + p));
        c00 = dot_i16_step(c00, va, vb0);
        c01 = dot_i16_step(c01, va, vb1);
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + p));
        c10 = dot_i16_step(c10, va, vb0);
        c11 = dot_i16_step(c11, va, vb1);
      }
      int64_t s[2][2] = {{hsum_epi64(c00), hsum_epi64(c01)},
                         {hsum_epi64(c10), hsum_epi64(c11)}};
      for (; p < kb; ++p) {
        const int64_t bb0 = b0[p], bb1 = b1[p];
        s[0][0] += a0[p] * bb0; s[0][1] += a0[p] * bb1;
        s[1][0] += a1[p] * bb0; s[1][1] += a1[p] * bb1;
      }
      for (size_t r = 0; r < 2; ++r) {
        C[(i + r) * ldc + j + 0] =
            (a_scales[i + r] * b_scales[j + 0]) * static_cast<double>(s[r][0]);
        C[(i + r) * ldc + j + 1] =
            (a_scales[i + r] * b_scales[j + 1]) * static_cast<double>(s[r][1]);
      }
    }
    for (; j < nb; ++j) {
      const int16_t* b = Bq + j * kb;
      C[(i + 0) * ldc + j] =
          (a_scales[i + 0] * b_scales[j]) * static_cast<double>(dot_i16_avx2(a0, b, kb));
      C[(i + 1) * ldc + j] =
          (a_scales[i + 1] * b_scales[j]) * static_cast<double>(dot_i16_avx2(a1, b, kb));
    }
  }
  for (; i < mb; ++i) {
    const int16_t* a = Aq + i * kb;
    for (size_t j = 0; j < nb; ++j) {
      C[i * ldc + j] = (a_scales[i] * b_scales[j]) *
                       static_cast<double>(dot_i16_avx2(a, Bq + j * kb, kb));
    }
  }
}

// The nine elementwise kernels: the shared bodies, which this unit's flags
// vectorize (4 doubles per instruction, no FMA, vsqrtpd/vdivpd for Adam).

void Avx2Backend::add_bias_rows(size_t rows, size_t cols, const double* bias,
                                double* out) const {
  elementwise::add_bias_rows(rows, cols, bias, out);
}

void Avx2Backend::relu_forward(size_t n, const double* x, double* y) const {
  elementwise::relu_forward(n, x, y);
}

void Avx2Backend::relu_backward(size_t n, const double* y, const double* gout,
                                double* gin) const {
  elementwise::relu_backward(n, y, gout, gin);
}

void Avx2Backend::leaky_relu_forward(size_t n, double alpha, const double* x, double* xc,
                                     double* y) const {
  elementwise::leaky_relu_forward(n, alpha, x, xc, y);
}

void Avx2Backend::leaky_relu_backward(size_t n, double alpha, const double* x,
                                      const double* gout, double* gin) const {
  elementwise::leaky_relu_backward(n, alpha, x, gout, gin);
}

void Avx2Backend::tanh_backward(size_t n, const double* y, const double* gout,
                                double* gin) const {
  elementwise::tanh_backward(n, y, gout, gin);
}

void Avx2Backend::sgd_update(size_t n, double lr, const double* g, double* w) const {
  elementwise::sgd_update(n, lr, g, w);
}

void Avx2Backend::sgd_momentum_update(size_t n, double lr, double momentum,
                                      const double* g, double* vel, double* w) const {
  elementwise::sgd_momentum_update(n, lr, momentum, g, vel, w);
}

void Avx2Backend::adam_update(size_t n, double lr, double beta1, double beta2, double bc1,
                              double bc2, double eps, const double* g, double* m,
                              double* v, double* w) const {
  elementwise::adam_update(n, lr, beta1, beta2, bc1, bc2, eps, g, m, v, w);
}

void Avx2Backend::fft_radix2_pass(size_t n, size_t len, const double* tw,
                                  double* data) const {
  const size_t half = len / 2;
  if (len == 2) {
    // One butterfly per vector: [ur ui vr vi] -> [ur+vr ui+vi ur-vr ui-vi],
    // additions in the scalar reference's u-first order.
    for (size_t i = 0; i < n; i += 2) {
      double* p = data + 2 * i;
      const __m256d a = _mm256_loadu_pd(p);
      const __m256d b = _mm256_permute2f128_pd(a, a, 0x01);  // [vr vi ur ui]
      const __m256d s = _mm256_add_pd(a, b);
      const __m256d d = _mm256_sub_pd(a, b);
      _mm256_storeu_pd(p, _mm256_permute2f128_pd(s, d, 0x20));
    }
    return;
  }
  for (size_t i = 0; i < n; i += len) {
    double* ub = data + 2 * i;
    double* vb = ub + len;  // v half starts half complexes (= len doubles) in
    for (size_t k = 0; k < half; k += 2) {
      const __m256d v = cmul2(_mm256_loadu_pd(vb + 2 * k), _mm256_loadu_pd(tw + 2 * k));
      const __m256d u = _mm256_loadu_pd(ub + 2 * k);
      _mm256_storeu_pd(ub + 2 * k, _mm256_add_pd(u, v));
      _mm256_storeu_pd(vb + 2 * k, _mm256_sub_pd(u, v));
    }
  }
}

void Avx2Backend::fft_radix4_pass(size_t n, size_t len, const double* twA,
                                  const double* twB, const double* twC,
                                  double* data) const {
  const size_t q = len / 4;
  if (q < 2) {  // q == 1: the twA stage is the multiply-free len == 2 case.
    KernelBackend::fft_radix4_pass(n, len, twA, twB, twC, data);
    return;
  }
  for (size_t i = 0; i < n; i += len) {
    double* base = data + 2 * i;
    for (size_t k = 0; k < q; k += 2) {
      double* p0 = base + 2 * k;
      double* p1 = p0 + 2 * q;
      double* p2 = p0 + 4 * q;
      double* p3 = p0 + 6 * q;
      const __m256d wa = _mm256_loadu_pd(twA + 2 * k);
      const __m256d t1 = cmul2(_mm256_loadu_pd(p1), wa);
      const __m256d t3 = cmul2(_mm256_loadu_pd(p3), wa);
      const __m256d v0 = _mm256_loadu_pd(p0);
      const __m256d v2 = _mm256_loadu_pd(p2);
      const __m256d u0 = _mm256_add_pd(v0, t1);
      const __m256d u1 = _mm256_sub_pd(v0, t1);
      const __m256d u2 = _mm256_add_pd(v2, t3);
      const __m256d u3 = _mm256_sub_pd(v2, t3);
      const __m256d w2 = cmul2(u2, _mm256_loadu_pd(twB + 2 * k));
      const __m256d w3 = cmul2(u3, _mm256_loadu_pd(twC + 2 * k));
      _mm256_storeu_pd(p0, _mm256_add_pd(u0, w2));
      _mm256_storeu_pd(p1, _mm256_add_pd(u1, w3));
      _mm256_storeu_pd(p2, _mm256_sub_pd(u0, w2));
      _mm256_storeu_pd(p3, _mm256_sub_pd(u1, w3));
    }
  }
}

void Avx2Backend::cplx_mul(size_t n, const double* a, const double* b,
                           double* out) const {
  size_t i = 0;
  for (; i + 2 <= n; i += 2)
    _mm256_storeu_pd(out + 2 * i,
                     cmul2(_mm256_loadu_pd(a + 2 * i), _mm256_loadu_pd(b + 2 * i)));
  // Tail in explicit SSE3: a plain-C tail here gets SLP-vectorized into
  // vfmaddsub231pd (the vectorizer's mul+addsub pattern fuses even under
  // -ffp-contract=off), breaking bitwise parity with the scalar backend.
  for (; i < n; ++i) {
    const __m128d av = _mm_loadu_pd(a + 2 * i);
    const __m128d br = _mm_loaddup_pd(b + 2 * i);
    const __m128d bi = _mm_loaddup_pd(b + 2 * i + 1);
    const __m128d aswap = _mm_shuffle_pd(av, av, 0x1);
    _mm_storeu_pd(out + 2 * i,
                  _mm_addsub_pd(_mm_mul_pd(av, br), _mm_mul_pd(aswap, bi)));
  }
}

Avx2Backend::PicGatherFn Avx2Backend::pic_gather(int shape) const {
  switch (shape) {
    case 0: return &gather_range_avx2<NgpStencil, pic::Shape::NGP>;
    case 1: return &gather_range_avx2<CicStencil, pic::Shape::CIC>;
    default: return &gather_range_avx2<TscStencil, pic::Shape::TSC>;
  }
}

Avx2Backend::PicStaggerFn Avx2Backend::pic_stagger(int shape) const {
  switch (shape) {
    case 0: return &stagger_range_avx2<NgpStencil, pic::Shape::NGP>;
    case 1: return &stagger_range_avx2<CicStencil, pic::Shape::CIC>;
    default: return &stagger_range_avx2<TscStencil, pic::Shape::TSC>;
  }
}

Avx2Backend::PicLeapfrogFn Avx2Backend::pic_leapfrog(int shape) const {
  switch (shape) {
    case 0: return &leapfrog_range_avx2<NgpStencil, pic::Shape::NGP>;
    case 1: return &leapfrog_range_avx2<CicStencil, pic::Shape::CIC>;
    default: return &leapfrog_range_avx2<TscStencil, pic::Shape::TSC>;
  }
}

Avx2Backend::PicDepositFn Avx2Backend::pic_deposit(int shape) const {
  switch (shape) {
    case 0: return &deposit_range_avx2<NgpStencil, pic::Shape::NGP>;
    case 1: return &deposit_range_avx2<CicStencil, pic::Shape::CIC>;
    default: return &deposit_range_avx2<TscStencil, pic::Shape::TSC>;
  }
}

Avx2Backend::BinNgpFn Avx2Backend::bin_ngp() const { return &bin_ngp_avx2; }

const KernelBackend* avx2_backend() {
  // The backend is compiled in; still require the running CPU to report
  // AVX2+FMA before handing it out.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  static const Avx2Backend backend;
  return supported ? &backend : nullptr;
}

}  // namespace dlpic::nn

#else  // no AVX2/FMA in this build: the scalar backend serves everything.

namespace dlpic::nn {

const KernelBackend* avx2_backend() { return nullptr; }

}  // namespace dlpic::nn

#endif
