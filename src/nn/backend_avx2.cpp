#include "nn/backend_avx2.hpp"

#if defined(__AVX2__) && defined(__FMA__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "nn/backend_scalar.hpp"

namespace dlpic::nn {

namespace {

// ---------------------------------------------------------------------------
// Vector PIC stencils. Four particles per step; int32 node indices (the node
// count fits int32 by Grid1D construction), weights evaluated with the exact
// scalar formulas and operation order. Loop tails delegate to the scalar
// shape templates, so every PIC kernel here is bitwise identical to the
// scalar backend.

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
template <class St>
inline __m256d gather_stencil(const double* E, const St& st) {
  __m256d acc = _mm256_setzero_pd();
  for (int s = 0; s < St::support; ++s)
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_i32gather_pd(E, st.node[s], 8), st.w[s]));
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
    const __m256d xi = _mm256_mul_pd(_mm256_loadu_pd(x + p), vinv);
    const __m256d Ep = gather_stencil(E, St(xi, n));
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
    const __m256d xi = _mm256_mul_pd(xv, vinv);
    const __m256d Ep = gather_stencil(E, St(xi, n));
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
                            std::min<size_t>(8, nb4 - j - 8), C + j, ldc);
    for (; j < nb4; j += 4)
      gemm_nt_listed<MR, 1>(kb, a, list, count, B + j * ldb, ldb,
                            std::min<size_t>(4, nb4 - j - 4), C + j, ldc);
    return;
  }
  for (; j + 8 <= nb4; j += 8) gemm_nt_groups<MR, 2>(kb, a, B + j * ldb, ldb, C + j, ldc);
  for (; j < nb4; j += 4) gemm_nt_groups<MR, 1>(kb, a, B + j * ldb, ldb, C + j, ldc);
}

// ---------------------------------------------------------------------------
// The backend.

class Avx2Backend final : public ScalarBackend {
 public:
  [[nodiscard]] const char* name() const override { return "avx2"; }

  // 8-column FMA micro-kernel over 4-row register sub-tiles (11 live ymm:
  // 8 accumulators + 2 B vectors + 1 A broadcast). Remainders fall back to
  // the plain accumulate loops.
  void gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                  const double* Bpanel, double* C, size_t ldc) const override {
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
  // take the fmadd lanes, the rest the plain mul-then-add tail.
  void gemm_nt_block(size_t mr, size_t nb, size_t kb, const double* a, const double* B,
                     size_t ldb, double* C, size_t ldc) const override {
    switch (mr) {
      case 1: gemm_nt_rows<1>(nb, kb, a, B, ldb, C, ldc); break;
      case 2: gemm_nt_rows<2>(nb, kb, a, B, ldb, C, ldc); break;
      case 3: gemm_nt_rows<3>(nb, kb, a, B, ldb, C, ldc); break;
      default: gemm_nt_rows<4>(nb, kb, a, B, ldb, C, ldc); break;
    }
    const size_t j = nb & ~size_t{3};
    KernelBackend::gemm_nt_block(mr, nb - j, kb, a, B + j * ldb, ldb, C + j, ldc);
  }

  // 4-row x 2-column register tile over 32-wide k steps (8 int32
  // accumulators + 2 B vectors + 1 A vector live), mirroring the f64
  // micro-kernel's 4-row structure. Per 32-step each int32 lane gains at
  // most 4 * 127^2 = 64516, so lane overflow needs k > ~1M — far beyond the
  // kQuantizedGemmMaxDepth bound callers enforce. Remainders use the shared
  // single-dot helper; everything is exact integer arithmetic, so this
  // kernel is bitwise identical to the scalar reference.
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
  void gemm_int16(size_t mb, size_t nb, size_t kb, const int16_t* Aq,
                  const double* a_scales, const int16_t* Bq, const double* b_scales,
                  double* C, size_t ldc) const override {
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

  void axpy(size_t n, double alpha, const double* x, double* y) const override {
    const __m256d va = _mm256_set1_pd(alpha);
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(
          y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                               _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
    for (; i < n; ++i) y[i] += alpha * x[i];
  }

  void add_bias_rows(size_t rows, size_t cols, const double* bias,
                     double* out) const override {
    for (size_t r = 0; r < rows; ++r) {
      double* row = out + r * cols;
      size_t c = 0;
      for (; c + 4 <= cols; c += 4)
        _mm256_storeu_pd(row + c, _mm256_add_pd(_mm256_loadu_pd(row + c),
                                                _mm256_loadu_pd(bias + c)));
      for (; c < cols; ++c) row[c] += bias[c];
    }
  }

  void relu_forward(size_t n, const double* x, double* y) const override {
    const __m256d zero = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d xv = _mm256_loadu_pd(x + i);
      const __m256d neg = _mm256_cmp_pd(xv, zero, _CMP_LT_OQ);
      _mm256_storeu_pd(y + i, _mm256_andnot_pd(neg, xv));
    }
    for (; i < n; ++i) y[i] = x[i] < 0.0 ? 0.0 : x[i];
  }

  void relu_backward(size_t n, const double* y, const double* gout,
                     double* gin) const override {
    const __m256d zero = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d mask = _mm256_cmp_pd(_mm256_loadu_pd(y + i), zero, _CMP_LE_OQ);
      _mm256_storeu_pd(gin + i, _mm256_andnot_pd(mask, _mm256_loadu_pd(gout + i)));
    }
    for (; i < n; ++i) gin[i] = y[i] <= 0.0 ? 0.0 : gout[i];
  }

  void leaky_relu_forward(size_t n, double alpha, const double* x, double* xc,
                          double* y) const override {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d va = _mm256_set1_pd(alpha);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d xv = _mm256_loadu_pd(x + i);
      _mm256_storeu_pd(xc + i, xv);
      const __m256d neg = _mm256_cmp_pd(xv, zero, _CMP_LT_OQ);
      _mm256_storeu_pd(y + i, _mm256_blendv_pd(xv, _mm256_mul_pd(va, xv), neg));
    }
    for (; i < n; ++i) {
      xc[i] = x[i];
      y[i] = x[i] < 0.0 ? alpha * x[i] : x[i];
    }
  }

  void leaky_relu_backward(size_t n, double alpha, const double* x, const double* gout,
                           double* gin) const override {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d va = _mm256_set1_pd(alpha);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d mask = _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_LE_OQ);
      const __m256d gv = _mm256_loadu_pd(gout + i);
      _mm256_storeu_pd(gin + i, _mm256_blendv_pd(gv, _mm256_mul_pd(va, gv), mask));
    }
    for (; i < n; ++i) gin[i] = x[i] <= 0.0 ? alpha * gout[i] : gout[i];
  }

  void tanh_backward(size_t n, const double* y, const double* gout,
                     double* gin) const override {
    const __m256d one = _mm256_set1_pd(1.0);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d yv = _mm256_loadu_pd(y + i);
      _mm256_storeu_pd(gin + i,
                       _mm256_mul_pd(_mm256_loadu_pd(gout + i),
                                     _mm256_sub_pd(one, _mm256_mul_pd(yv, yv))));
    }
    for (; i < n; ++i) gin[i] = gout[i] * (1.0 - y[i] * y[i]);
  }

  void sgd_update(size_t n, double lr, const double* g, double* w) const override {
    const __m256d vlr = _mm256_set1_pd(lr);
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(
          w + i, _mm256_sub_pd(_mm256_loadu_pd(w + i),
                               _mm256_mul_pd(vlr, _mm256_loadu_pd(g + i))));
    for (; i < n; ++i) w[i] -= lr * g[i];
  }

  void sgd_momentum_update(size_t n, double lr, double momentum, const double* g,
                           double* vel, double* w) const override {
    const __m256d vlr = _mm256_set1_pd(lr);
    const __m256d vmom = _mm256_set1_pd(momentum);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vn =
          _mm256_sub_pd(_mm256_mul_pd(vmom, _mm256_loadu_pd(vel + i)),
                        _mm256_mul_pd(vlr, _mm256_loadu_pd(g + i)));
      _mm256_storeu_pd(vel + i, vn);
      _mm256_storeu_pd(w + i, _mm256_add_pd(_mm256_loadu_pd(w + i), vn));
    }
    for (; i < n; ++i) {
      vel[i] = momentum * vel[i] - lr * g[i];
      w[i] += vel[i];
    }
  }

  void adam_update(size_t n, double lr, double beta1, double beta2, double bc1,
                   double bc2, double eps, const double* g, double* m, double* v,
                   double* w) const override {
    const __m256d vb1 = _mm256_set1_pd(beta1), vob1 = _mm256_set1_pd(1.0 - beta1);
    const __m256d vb2 = _mm256_set1_pd(beta2), vob2 = _mm256_set1_pd(1.0 - beta2);
    const __m256d vbc1 = _mm256_set1_pd(bc1), vbc2 = _mm256_set1_pd(bc2);
    const __m256d vlr = _mm256_set1_pd(lr), veps = _mm256_set1_pd(eps);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d gv = _mm256_loadu_pd(g + i);
      // Exact scalar order: (1-b2)*g*g associates as ((1-b2)*g)*g.
      const __m256d mn = _mm256_add_pd(_mm256_mul_pd(vb1, _mm256_loadu_pd(m + i)),
                                       _mm256_mul_pd(vob1, gv));
      const __m256d vn = _mm256_add_pd(
          _mm256_mul_pd(vb2, _mm256_loadu_pd(v + i)),
          _mm256_mul_pd(_mm256_mul_pd(vob2, gv), gv));
      _mm256_storeu_pd(m + i, mn);
      _mm256_storeu_pd(v + i, vn);
      const __m256d mhat = _mm256_div_pd(mn, vbc1);
      const __m256d vhat = _mm256_div_pd(vn, vbc2);
      const __m256d step = _mm256_div_pd(_mm256_mul_pd(vlr, mhat),
                                         _mm256_add_pd(_mm256_sqrt_pd(vhat), veps));
      _mm256_storeu_pd(w + i, _mm256_sub_pd(_mm256_loadu_pd(w + i), step));
    }
    for (; i < n; ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }

  void fft_radix2_pass(size_t n, size_t len, const double* tw,
                       double* data) const override {
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

  void fft_radix4_pass(size_t n, size_t len, const double* twA, const double* twB,
                       const double* twC, double* data) const override {
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

  void cplx_mul(size_t n, const double* a, const double* b,
                double* out) const override {
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

  [[nodiscard]] PicGatherFn pic_gather(int shape) const override {
    switch (shape) {
      case 0: return &gather_range_avx2<NgpStencil, pic::Shape::NGP>;
      case 1: return &gather_range_avx2<CicStencil, pic::Shape::CIC>;
      default: return &gather_range_avx2<TscStencil, pic::Shape::TSC>;
    }
  }

  [[nodiscard]] PicStaggerFn pic_stagger(int shape) const override {
    switch (shape) {
      case 0: return &stagger_range_avx2<NgpStencil, pic::Shape::NGP>;
      case 1: return &stagger_range_avx2<CicStencil, pic::Shape::CIC>;
      default: return &stagger_range_avx2<TscStencil, pic::Shape::TSC>;
    }
  }

  [[nodiscard]] PicLeapfrogFn pic_leapfrog(int shape) const override {
    switch (shape) {
      case 0: return &leapfrog_range_avx2<NgpStencil, pic::Shape::NGP>;
      case 1: return &leapfrog_range_avx2<CicStencil, pic::Shape::CIC>;
      default: return &leapfrog_range_avx2<TscStencil, pic::Shape::TSC>;
    }
  }

  [[nodiscard]] PicDepositFn pic_deposit(int shape) const override {
    switch (shape) {
      case 0: return &deposit_range_avx2<NgpStencil, pic::Shape::NGP>;
      case 1: return &deposit_range_avx2<CicStencil, pic::Shape::CIC>;
      default: return &deposit_range_avx2<TscStencil, pic::Shape::TSC>;
    }
  }

  [[nodiscard]] BinNgpFn bin_ngp() const override { return &bin_ngp_avx2; }
};

}  // namespace

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
