#include "nn/backend_avx512.hpp"

#if defined(__AVX512VNNI__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX2__) && defined(__FMA__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "nn/backend_scalar.hpp"
#include "pic/grid.hpp"
#include "util/inline.hpp"

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
// Skinny NT GEMM on zmm: 8 output columns per accumulator, up to 16 rows in
// registers, so each B panel is read once per batch of rows.

/// The 4 k values at offset p of 8 B row streams, transposed in registers:
/// col[q] holds the 8 streams' values at k offset p + q, stream r in lane r.
DLPIC_ALWAYS_INLINE void transpose_4x8(const double* const b[8], size_t p, __m512d col[4]) {
  // The all-lane maskz forms compile to the plain instructions; GCC 12's
  // unmasked wrappers (and _mm512_zextpd256_pd512, built on one) pass an
  // undefined vector that -Wmaybe-uninitialized flags. The cast leaves the
  // upper half undefined, and the insert overwrites it.
  __m512d z[4];  // z[r] = [stream r | stream r + 4]
  for (int r = 0; r < 4; ++r)
    z[r] = _mm512_maskz_insertf64x4(0xFF, _mm512_castpd256_pd512(_mm256_loadu_pd(b[r] + p)),
                                    _mm256_loadu_pd(b[r + 4] + p), 1);
  // Per 128-bit lane: t0 = {r0[0] r1[0] | r0[2] r1[2] | r4[0] r5[0] | r4[2] r5[2]}.
  const __m512d t0 = _mm512_maskz_unpacklo_pd(0xFF, z[0], z[1]);
  const __m512d t1 = _mm512_maskz_unpackhi_pd(0xFF, z[0], z[1]);
  const __m512d t2 = _mm512_maskz_unpacklo_pd(0xFF, z[2], z[3]);
  const __m512d t3 = _mm512_maskz_unpackhi_pd(0xFF, z[2], z[3]);
  const __m512i even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  col[0] = _mm512_permutex2var_pd(t0, even, t2);
  col[1] = _mm512_permutex2var_pd(t1, even, t3);
  col[2] = _mm512_permutex2var_pd(t0, odd, t2);
  col[3] = _mm512_permutex2var_pd(t1, odd, t3);
}

/// Deepest k-block the zmm kernel takes (math::gemm's k-blocks are 256
/// deep); a deeper panel runs on the AVX2 kernel, which gives the same bits.
constexpr size_t kZmmMaxDepth = 256;

/// The 4-groups of k that are nonzero (or NaN) in any of the MR rows, with
/// the rows' values packed per group: group t, at k offset p[t], holds row
/// i's 4 values at a[t * 4 * MR + 4 * i], so one pointer addresses every
/// broadcast of a group. Groups that are ±0 in every row are left out.
template <int MR>
struct ListedGroups {
  alignas(32) double a[kZmmMaxDepth * MR];
  uint16_t p[kZmmMaxDepth / 4];
  size_t count = 0;

  DLPIC_ALWAYS_INLINE ListedGroups(size_t kb, const double* rows) {
    const __m256d zero = _mm256_setzero_pd();
    for (size_t g = 0; g + 4 <= kb; g += 4) {
      double* dst = a + count * 4 * MR;
      int nonzero = 0;
      for (int i = 0; i < MR; ++i) {
        const __m256d v = _mm256_loadu_pd(rows + i * kb + g);
        nonzero |= _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_NEQ_UQ));
        _mm256_store_pd(dst + 4 * i, v);
      }
      p[count] = static_cast<uint16_t>(g);
      count += nonzero != 0;
    }
  }
};

/// MR rows against G groups of 8 output columns (8*G row streams of B):
/// per lane the sequence of the AVX2 kernel, c = fmadd(a[p], b, c) over
/// ascending p from a fresh accumulator, then C += c. Each 4x8 tile of B is
/// loaded and transposed once and feeds all MR rows.
template <int MR, int G>
struct ZmmStreams {
  const double* b[8 * G];
  __m512d c[MR][G];

  DLPIC_ALWAYS_INLINE ZmmStreams(const double* B, size_t ldb) {
    for (int r = 0; r < 8 * G; ++r) b[r] = B + static_cast<size_t>(r) * ldb;
    for (int i = 0; i < MR; ++i)
      for (int g = 0; g < G; ++g) c[i][g] = _mm512_setzero_pd();
  }

  /// The fmadd terms of the listed group `ag` (packed rows) at k offset p.
  DLPIC_ALWAYS_INLINE void group(const double* ag, size_t p) {
    __m512d col[G][4];
    for (int g = 0; g < G; ++g) transpose_4x8(b + 8 * g, p, col[g]);
    for (int q = 0; q < 4; ++q) {
      for (int i = 0; i < MR; ++i) {
        const __m512d av = _mm512_set1_pd(ag[4 * i + q]);
        for (int g = 0; g < G; ++g) c[i][g] = _mm512_fmadd_pd(av, col[g][q], c[i][g]);
      }
    }
  }

  /// The k tail after the last whole group (never skipped; `a` holds the
  /// rows at stride kb), then C += c.
  DLPIC_ALWAYS_INLINE void finish(size_t kb, const double* a, double* C, size_t ldc) {
    for (size_t p = kb & ~size_t{3}; p < kb; ++p) {
      __m512d col[G];
      for (int g = 0; g < G; ++g) {
        const double* const* s = b + 8 * g;
        col[g] = _mm512_setr_pd(s[0][p], s[1][p], s[2][p], s[3][p], s[4][p], s[5][p],
                                s[6][p], s[7][p]);
      }
      for (int i = 0; i < MR; ++i) {
        const __m512d av = _mm512_set1_pd(a[i * kb + p]);
        for (int g = 0; g < G; ++g) c[i][g] = _mm512_fmadd_pd(av, col[g], c[i][g]);
      }
    }
    for (int i = 0; i < MR; ++i) {
      double* ci = C + i * ldc;
      for (int g = 0; g < G; ++g)
        _mm512_storeu_pd(ci + 8 * g, _mm512_add_pd(_mm512_loadu_pd(ci + 8 * g), c[i][g]));
    }
  }
};

/// One stream of 8*G columns over the listed groups. It prefetches the
/// listed offsets of the first `next_rows` B rows after its own, which the
/// next stream reads (none in a dense block, where the hardware prefetcher
/// keeps up).
template <int MR, int G>
void zmm_nt_stream(size_t kb, const double* a, const ListedGroups<MR>& list,
                   const double* B, size_t ldb, size_t next_rows, double* C, size_t ldc) {
  ZmmStreams<MR, G> s(B, ldb);
  const double* next = B + 8 * G * ldb;
  for (size_t t = 0; t < list.count; ++t) {
    const size_t p = list.p[t];
    for (size_t r = 0; r < next_rows; ++r)
      _mm_prefetch(reinterpret_cast<const char*>(next + r * ldb + p), _MM_HINT_T0);
    s.group(list.a + t * 4 * MR, p);
  }
  s.finish(kb, a, C, ldc);
}

/// The first nb8 (a multiple of 8) columns for MR rows: 16 columns per
/// stream while the 2*MR accumulators fit the registers beside their 8
/// transposed B vectors, else 8, so every row count keeps at least 8
/// fmadd chains in flight. A block with fewer than half of its groups
/// listed (a sparse histogram input) prefetches each next stream's listed
/// lines.
template <int MR>
void zmm_nt_rows(size_t nb8, size_t kb, const double* a, const double* B, size_t ldb,
                 double* C, size_t ldc) {
  constexpr size_t kWide = MR <= 8 ? 16 : 8;
  const ListedGroups<MR> list(kb, a);
  const size_t prefetch = 2 * list.count < kb / 4 ? kWide : 0;
  size_t j = 0;
  for (; j + kWide <= nb8; j += kWide) {
    const size_t left = nb8 - j - kWide;
    zmm_nt_stream<MR, kWide / 8>(kb, a, list, B + j * ldb, ldb,
                                 left < prefetch ? left : prefetch, C + j, ldc);
  }
  for (; j < nb8; j += 8) zmm_nt_stream<MR, 1>(kb, a, list, B + j * ldb, ldb, 0, C + j, ldc);
}

// ---------------------------------------------------------------------------
// Skinny NN GEMM on zmm: B is W^T, so each live k index is one contiguous
// run of weights across the output columns.

/// Deepest run of k one live list covers (math::gemm's k-blocks are 256
/// deep, so its calls list each block once).
constexpr size_t kNnListDepth = 256;

/// Widest column strip of the one-row kernel's accumulator array.
constexpr size_t kNnStrip = 1024;

/// Most rows one register-blocked group holds.
constexpr size_t kNnRows = 8;

constexpr size_t nn_min(size_t a, size_t b) { return b < a ? b : a; }

/// The k indices of [p0, p1) that are nonzero (or NaN) in any of the MR
/// rows of `a` (row stride kb), ascending, with the rows' values packed per
/// index: entry t, at k index p0 + p[t], holds row i's value at
/// a[t * MR + i]. Indices that are ±0 in every row are left out.
template <int MR>
struct NnLive {
  double a[kNnListDepth * MR];
  uint16_t p[kNnListDepth];
  size_t count = 0;

  DLPIC_ALWAYS_INLINE NnLive(size_t kb, const double* rows, size_t p0, size_t p1) {
    size_t q = p0;
    for (; q + 8 <= p1; q += 8) {
      __mmask8 nonzero = 0;
      for (int i = 0; i < MR; ++i)
        nonzero |= _mm512_cmp_pd_mask(_mm512_loadu_pd(rows + i * kb + q), _mm512_setzero_pd(),
                                      _CMP_NEQ_UQ);
      for (unsigned m = nonzero; m != 0; m &= m - 1) add(kb, rows, p0, q + __builtin_ctz(m));
    }
    for (; q < p1; ++q) {
      bool nonzero = false;
      for (int i = 0; i < MR; ++i) nonzero |= rows[i * kb + q] != 0.0;
      if (nonzero) add(kb, rows, p0, q);
    }
  }

  DLPIC_ALWAYS_INLINE void add(size_t kb, const double* rows, size_t p0, size_t q) {
    for (int i = 0; i < MR; ++i) a[count * MR + i] = rows[i * kb + q];
    p[count++] = static_cast<uint16_t>(q - p0);
  }
};

/// One row (a batch-1 forward) against nb8 columns (a multiple of 8): per
/// strip of up to kNnStrip columns, a fresh accumulator array takes the
/// live weight rows, four per pass, in ascending p with fmadd, and is then
/// added to C.
void zmm_nn_row(size_t nb8, size_t kb, const double* a, const double* B, size_t ldb,
                double* C) {
  alignas(64) double acc[kNnStrip];
  for (size_t j0 = 0; j0 < nb8; j0 += kNnStrip) {
    const size_t w = nn_min(kNnStrip, nb8 - j0);
    for (size_t j = 0; j < w; j += 8) _mm512_store_pd(acc + j, _mm512_setzero_pd());
    for (size_t p0 = 0; p0 < kb; p0 += kNnListDepth) {
      const NnLive<1> live(kb, a, p0, nn_min(kb, p0 + kNnListDepth));
      const double* Bs = B + p0 * ldb + j0;
      size_t t = 0;
      for (; t + 4 <= live.count; t += 4) {
        const double* b0 = Bs + live.p[t] * ldb;
        const double* b1 = Bs + live.p[t + 1] * ldb;
        const double* b2 = Bs + live.p[t + 2] * ldb;
        const double* b3 = Bs + live.p[t + 3] * ldb;
        const __m512d a0 = _mm512_set1_pd(live.a[t]);
        const __m512d a1 = _mm512_set1_pd(live.a[t + 1]);
        const __m512d a2 = _mm512_set1_pd(live.a[t + 2]);
        const __m512d a3 = _mm512_set1_pd(live.a[t + 3]);
        for (size_t j = 0; j < w; j += 8) {
          __m512d c = _mm512_load_pd(acc + j);
          c = _mm512_fmadd_pd(a0, _mm512_loadu_pd(b0 + j), c);
          c = _mm512_fmadd_pd(a1, _mm512_loadu_pd(b1 + j), c);
          c = _mm512_fmadd_pd(a2, _mm512_loadu_pd(b2 + j), c);
          c = _mm512_fmadd_pd(a3, _mm512_loadu_pd(b3 + j), c);
          _mm512_store_pd(acc + j, c);
        }
      }
      for (; t < live.count; ++t) {
        const double* b = Bs + live.p[t] * ldb;
        const __m512d av = _mm512_set1_pd(live.a[t]);
        for (size_t j = 0; j < w; j += 8)
          _mm512_store_pd(acc + j,
                          _mm512_fmadd_pd(av, _mm512_loadu_pd(b + j), _mm512_load_pd(acc + j)));
      }
    }
    double* c = C + j0;
    for (size_t j = 0; j < w; j += 8)
      _mm512_storeu_pd(c + j, _mm512_add_pd(_mm512_loadu_pd(c + j), _mm512_load_pd(acc + j)));
  }
}

/// MR rows' accumulators over 8*G columns: c = fmadd(a_i[p], b, c) per
/// lane, one term per live k index in ascending order, then C += c.
template <int MR, int G>
struct ZmmNnTile {
  __m512d c[MR][G];

  DLPIC_ALWAYS_INLINE ZmmNnTile() {
    for (int i = 0; i < MR; ++i)
      for (int g = 0; g < G; ++g) c[i][g] = _mm512_setzero_pd();
  }

  /// The terms of one weight row `b`, row i's value at av[i].
  DLPIC_ALWAYS_INLINE void term(const double* b, const double* av) {
    __m512d bv[G];
    for (int g = 0; g < G; ++g) bv[g] = _mm512_loadu_pd(b + 8 * g);
    for (int i = 0; i < MR; ++i) {
      const __m512d x = _mm512_set1_pd(av[i]);
      for (int g = 0; g < G; ++g) c[i][g] = _mm512_fmadd_pd(x, bv[g], c[i][g]);
    }
  }

  DLPIC_ALWAYS_INLINE void store(double* C, size_t ldc) {
    for (int i = 0; i < MR; ++i)
      for (int g = 0; g < G; ++g) {
        double* ci = C + i * ldc + 8 * g;
        _mm512_storeu_pd(ci, _mm512_add_pd(_mm512_loadu_pd(ci), c[i][g]));
      }
  }
};

/// The columns of strips [j, j_end) (8*G wide) for MR rows over the list.
template <int MR, int G>
void zmm_nn_strips(size_t j, size_t j_end, const NnLive<MR>& live, const double* B,
                   size_t ldb, double* C, size_t ldc) {
  for (; j + 8 * G <= j_end; j += 8 * G) {
    ZmmNnTile<MR, G> tile;
    for (size_t t = 0; t < live.count; ++t)
      tile.term(B + live.p[t] * ldb + j, live.a + t * MR);
    tile.store(C + j, ldc);
  }
}

/// The first nb8 columns (a multiple of 8) for 2 to 8 rows over one
/// k-block of at most kNnListDepth: 32, 24 or 16 columns per strip as the
/// row count leaves registers, then 8.
template <int MR>
void zmm_nn_rows(size_t nb8, size_t kb, const double* a, const double* B, size_t ldb,
                 double* C, size_t ldc) {
  constexpr int kG = MR <= 4 ? 4 : MR <= 6 ? 3 : 2;
  const size_t wide = nb8 / (8 * kG) * (8 * kG);
  const NnLive<MR> live(kb, a, 0, kb);
  zmm_nn_strips<MR, kG>(0, wide, live, B, ldb, C, ldc);
  zmm_nn_strips<MR, 1>(wide, nb8, live, B, ldb, C, ldc);
}

// ---------------------------------------------------------------------------
// PIC push and stagger on zmm: eight particles per step. The stencils are
// the AVX2 unit's at twice the width: int32 node indices, the exact scalar
// weight formulas and operation order with no FMA, and a +0.0 gather
// accumulator. A group holding a non-finite x (which the scalar range
// rejects with the particle's index) and the tail run backend_detail's
// scalar ranges, so positions and velocities are bitwise the AVX2 and
// scalar ones.

/// wrap_near for 8 node indices at most one box outside [0, n).
inline __m256i wrap_near8(__m256i i, __m256i n) {
  i = _mm256_mask_add_epi32(i, _mm256_cmplt_epi32_mask(i, _mm256_setzero_si256()), i, n);
  return _mm256_mask_sub_epi32(i, _mm256_cmpge_epi32_mask(i, n), i, n);
}

// The stencils truncate with the all-lane maskz vcvttpd2dq, the plain
// instruction: GCC 12's unmasked wrapper passes an undefined vector that
// -Wmaybe-uninitialized flags.

struct ZmmNgpStencil {
  static constexpr int support = 1;
  __m256i node[1];
  __m512d w[1];
  ZmmNgpStencil(__m512d xi, __m256i n) {
    const __m512d fl = _mm512_floor_pd(_mm512_add_pd(xi, _mm512_set1_pd(0.5)));
    node[0] = wrap_near8(_mm512_maskz_cvttpd_epi32(0xFF, fl), n);
    w[0] = _mm512_set1_pd(1.0);
  }
};

struct ZmmCicStencil {
  static constexpr int support = 2;
  __m256i node[2];
  __m512d w[2];
  ZmmCicStencil(__m512d xi, __m256i n) {
    const __m512d fl = _mm512_floor_pd(xi);
    const __m256i i = _mm512_maskz_cvttpd_epi32(0xFF, fl);
    node[0] = wrap_near8(i, n);
    node[1] = wrap_near8(_mm256_add_epi32(i, _mm256_set1_epi32(1)), n);
    const __m512d frac = _mm512_sub_pd(xi, fl);
    w[0] = _mm512_sub_pd(_mm512_set1_pd(1.0), frac);
    w[1] = frac;
  }
};

struct ZmmTscStencil {
  static constexpr int support = 3;
  __m256i node[3];
  __m512d w[3];
  ZmmTscStencil(__m512d xi, __m256i n) {
    const __m512d fl = _mm512_floor_pd(_mm512_add_pd(xi, _mm512_set1_pd(0.5)));
    const __m256i i = _mm512_maskz_cvttpd_epi32(0xFF, fl);
    const __m256i one = _mm256_set1_epi32(1);
    node[0] = wrap_near8(_mm256_sub_epi32(i, one), n);
    node[1] = wrap_near8(i, n);
    node[2] = wrap_near8(_mm256_add_epi32(i, one), n);
    const __m512d d = _mm512_sub_pd(xi, fl);
    const __m512d half = _mm512_set1_pd(0.5);
    const __m512d dm = _mm512_sub_pd(half, d);  // 0.5 - d
    const __m512d dp = _mm512_add_pd(half, d);  // 0.5 + d
    // Scalar order: 0.5*(0.5-d)*(0.5-d) evaluates left to right.
    w[0] = _mm512_mul_pd(_mm512_mul_pd(half, dm), dm);
    w[1] = _mm512_sub_pd(_mm512_set1_pd(0.75), _mm512_mul_pd(d, d));
    w[2] = _mm512_mul_pd(_mm512_mul_pd(half, dp), dp);
  }
};

/// The scalar gather_at sum: acc = +0.0, then acc += E[node] * w in
/// ascending node order (starting from the first product instead would
/// keep a -0.0 product, where 0.0 + -0.0 gives +0.0). The all-lane masked
/// gather with a zero source is the plain vgatherdpd without GCC 12's
/// undefined source.
template <class St>
inline __m512d gather_stencil8(const double* E, const St& st) {
  __m512d acc = _mm512_setzero_pd();
  for (int s = 0; s < St::support; ++s)
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(_mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, st.node[s], E, 8),
                           st.w[s]));
  return acc;
}

/// True when all eight x are finite (x - x == 0, ordered).
inline bool all_finite8(__m512d x) {
  return _mm512_cmp_pd_mask(_mm512_sub_pd(x, x), _mm512_setzero_pd(), _CMP_EQ_OQ) == 0xFF;
}

template <class St, pic::Shape S>
void stagger_range_zmm(const double* E, const double* x, double* v, size_t lo, size_t hi,
                       double inv_dx, long ncells, double qm_half_dt) {
  const __m256i n = _mm256_set1_epi32(static_cast<int>(ncells));
  const __m512d vinv = _mm512_set1_pd(inv_dx);
  const __m512d vqm = _mm512_set1_pd(qm_half_dt);
  size_t p = lo;
  for (; p + 8 <= hi; p += 8) {
    const __m512d xv = _mm512_loadu_pd(x + p);
    if (!all_finite8(xv)) {
      backend_detail::stagger_range<S>(E, x, v, p, p + 8, inv_dx, ncells, qm_half_dt);
      continue;
    }
    const __m512d Ep = gather_stencil8(E, St(_mm512_mul_pd(xv, vinv), n));
    _mm512_storeu_pd(v + p, _mm512_add_pd(_mm512_loadu_pd(v + p), _mm512_mul_pd(vqm, Ep)));
  }
  backend_detail::stagger_range<S>(E, x, v, p, hi, inv_dx, ncells, qm_half_dt);
}

template <class St, pic::Shape S>
void leapfrog_range_zmm(const double* E, double* x, double* v, size_t lo, size_t hi,
                        double inv_dx, long ncells, double qm_dt, double dt, double length) {
  const __m256i n = _mm256_set1_epi32(static_cast<int>(ncells));
  const __m512d vinv = _mm512_set1_pd(inv_dx);
  const __m512d vqm = _mm512_set1_pd(qm_dt);
  const __m512d vdt = _mm512_set1_pd(dt);
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vlen = _mm512_set1_pd(length);
  size_t p = lo;
  for (; p + 8 <= hi; p += 8) {
    const __m512d xv = _mm512_loadu_pd(x + p);
    if (!all_finite8(xv)) {
      backend_detail::leapfrog_range<S>(E, x, v, p, p + 8, inv_dx, ncells, qm_dt, dt, length);
      continue;
    }
    const __m512d Ep = gather_stencil8(E, St(_mm512_mul_pd(xv, vinv), n));
    const __m512d vn = _mm512_add_pd(_mm512_loadu_pd(v + p), _mm512_mul_pd(vqm, Ep));
    _mm512_storeu_pd(v + p, vn);
    // Drift. When all eight lanes land in [0, L) (ordered compares: NaN is
    // out), pic::wrap_periodic would return them unchanged, so store the
    // vector; otherwise wrap each lane with that scalar helper.
    const __m512d xn = _mm512_add_pd(xv, _mm512_mul_pd(vn, vdt));
    const __mmask8 in_box = _mm512_cmp_pd_mask(xn, vzero, _CMP_GE_OQ) &
                            _mm512_cmp_pd_mask(xn, vlen, _CMP_LT_OQ);
    if (in_box == 0xFF) {
      _mm512_storeu_pd(x + p, xn);
    } else {
      alignas(64) double xs[8];
      _mm512_store_pd(xs, xn);
      for (int lane = 0; lane < 8; ++lane) x[p + lane] = pic::wrap_periodic(xs[lane], length);
    }
  }
  backend_detail::leapfrog_range<S>(E, x, v, p, hi, inv_dx, ncells, qm_dt, dt, length);
}

// ---------------------------------------------------------------------------
// The backend: the AVX2 backend with the skinny f64 GEMM on zmm for 4 to 16
// rows, the PIC push and stagger on zmm and gemm_int8 on vpdpbusd. Every
// other kernel is inherited, so it runs the AVX2 code.

class Avx512VnniBackend final : public Avx2Backend {
 public:
  [[nodiscard]] const char* name() const override { return "avx512"; }

  [[nodiscard]] PicStaggerFn pic_stagger(int shape) const override {
    switch (shape) {
      case 0: return &stagger_range_zmm<ZmmNgpStencil, pic::Shape::NGP>;
      case 1: return &stagger_range_zmm<ZmmCicStencil, pic::Shape::CIC>;
      default: return &stagger_range_zmm<ZmmTscStencil, pic::Shape::TSC>;
    }
  }

  [[nodiscard]] PicLeapfrogFn pic_leapfrog(int shape) const override {
    switch (shape) {
      case 0: return &leapfrog_range_zmm<ZmmNgpStencil, pic::Shape::NGP>;
      case 1: return &leapfrog_range_zmm<ZmmCicStencil, pic::Shape::CIC>;
      default: return &leapfrog_range_zmm<ZmmTscStencil, pic::Shape::TSC>;
    }
  }

  // Rows below 4 (a batch-1 forward) and panels deeper than kZmmMaxDepth
  // stay on the AVX2 kernel, and so do the columns past the last 8-group
  // (its 4-column fmadd group and mul-then-add tail), so every output keeps
  // the AVX2 kernel's sequence.
  void gemm_nt_block(size_t mr, size_t nb, size_t kb, const double* a, const double* B,
                     size_t ldb, double* C, size_t ldc) const override {
    const size_t nb8 = mr < 4 || kb > kZmmMaxDepth ? 0 : nb & ~size_t{7};
    if (nb8 > 0) {
      switch (mr) {
        case 4: zmm_nt_rows<4>(nb8, kb, a, B, ldb, C, ldc); break;
        case 5: zmm_nt_rows<5>(nb8, kb, a, B, ldb, C, ldc); break;
        case 6: zmm_nt_rows<6>(nb8, kb, a, B, ldb, C, ldc); break;
        case 7: zmm_nt_rows<7>(nb8, kb, a, B, ldb, C, ldc); break;
        case 8: zmm_nt_rows<8>(nb8, kb, a, B, ldb, C, ldc); break;
        case 9: zmm_nt_rows<9>(nb8, kb, a, B, ldb, C, ldc); break;
        case 10: zmm_nt_rows<10>(nb8, kb, a, B, ldb, C, ldc); break;
        case 11: zmm_nt_rows<11>(nb8, kb, a, B, ldb, C, ldc); break;
        case 12: zmm_nt_rows<12>(nb8, kb, a, B, ldb, C, ldc); break;
        case 13: zmm_nt_rows<13>(nb8, kb, a, B, ldb, C, ldc); break;
        case 14: zmm_nt_rows<14>(nb8, kb, a, B, ldb, C, ldc); break;
        case 15: zmm_nt_rows<15>(nb8, kb, a, B, ldb, C, ldc); break;
        default: zmm_nt_rows<16>(nb8, kb, a, B, ldb, C, ldc); break;
      }
    }
    if (nb8 < nb)
      Avx2Backend::gemm_nt_block(mr, nb - nb8, kb, a, B + nb8 * ldb, ldb, C + nb8, ldc);
  }

  // One row walks the whole width; 2 to 16 rows are register-blocked in
  // groups of up to 8. Columns past the last 8-group (the 4-column fmadd
  // group and the mul-then-add tail), and several rows over a panel deeper
  // than one list, run on the AVX2 kernel, so every output keeps its
  // sequence.
  void gemm_nn_block(size_t mr, size_t nb, size_t kb, const double* a, const double* B,
                     size_t ldb, double* C, size_t ldc) const override {
    const size_t nb8 = mr > 1 && kb > kNnListDepth ? 0 : nb & ~size_t{7};
    for (size_t i = 0; nb8 > 0 && i < mr; i += kNnRows) {
      const double* ai = a + i * kb;
      double* Ci = C + i * ldc;
      switch (nn_min(kNnRows, mr - i)) {
        case 1: zmm_nn_row(nb8, kb, ai, B, ldb, Ci); break;
        case 2: zmm_nn_rows<2>(nb8, kb, ai, B, ldb, Ci, ldc); break;
        case 3: zmm_nn_rows<3>(nb8, kb, ai, B, ldb, Ci, ldc); break;
        case 4: zmm_nn_rows<4>(nb8, kb, ai, B, ldb, Ci, ldc); break;
        case 5: zmm_nn_rows<5>(nb8, kb, ai, B, ldb, Ci, ldc); break;
        case 6: zmm_nn_rows<6>(nb8, kb, ai, B, ldb, Ci, ldc); break;
        case 7: zmm_nn_rows<7>(nb8, kb, ai, B, ldb, Ci, ldc); break;
        default: zmm_nn_rows<8>(nb8, kb, ai, B, ldb, Ci, ldc); break;
      }
    }
    if (nb8 < nb)
      Avx2Backend::gemm_nn_block(mr, nb - nb8, kb, a, B + nb8, ldb, C + nb8, ldc);
  }

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
