/// \file test_backend_parity.cpp
/// KernelBackend contract tests. Cross-backend: the AVX2 GEMM agrees with
/// scalar within a tight relative tolerance (FMA may change low bits), and
/// every routed elementwise/optimizer/PIC kernel is BITWISE identical to
/// scalar (they mirror the scalar operation order without FMA). Within each
/// backend: results are bitwise invariant under the worker count (1/2/8),
/// exercised at several pool widths in one process via ThreadPool::resize.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "math/fft_plan.hpp"
#include "math/linalg.hpp"
#include "math/rng.hpp"
#include "nn/activation.hpp"
#include "nn/backend.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/execution_context.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"
#include "phase_space/binner.hpp"
#include "pic/deposit.hpp"
#include "pic/gather.hpp"
#include "pic/loader.hpp"
#include "pic/mover.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dlpic;

// Declares `avx2` in the test body; skips the test on scalar-only hosts.
#define SKIP_WITHOUT_AVX2()                                                  \
  const nn::KernelBackend* avx2 = nn::avx2_backend();                        \
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 backend unavailable on this host/build"

// Declares `avx512` in the test body; skips on hosts/builds without the
// AVX-512 VNNI feature set (the backend self-gates on cpuid).
#define SKIP_WITHOUT_AVX512()                                                \
  const nn::KernelBackend* avx512 = nn::avx512_backend();                    \
  if (avx512 == nullptr)                                                     \
  GTEST_SKIP() << "AVX-512 VNNI backend unavailable on this host/build"

nn::Tensor random_tensor(std::vector<size_t> shape, uint64_t seed) {
  math::Rng rng(seed);
  nn::Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

std::vector<double> random_vec(size_t n, uint64_t seed, double lo = -1, double hi = 1) {
  math::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

// ---------------------------------------------------------------------------
// Selection plumbing.

TEST(BackendSelection, ScalarAlwaysAvailableAndNamed) {
  EXPECT_STREQ(nn::scalar_backend().name(), "scalar");
  EXPECT_EQ(nn::backend_by_name("scalar"), &nn::scalar_backend());
  EXPECT_EQ(nn::backend_by_name("avx2"), nn::avx2_backend());
  EXPECT_EQ(nn::backend_by_name("avx512"), nn::avx512_backend());
  EXPECT_EQ(nn::backend_by_name("no-such-backend"), nullptr);
}

TEST(BackendSelection, Avx512NamedAndDelegatesF64Kernels) {
  SKIP_WITHOUT_AVX512();
  SKIP_WITHOUT_AVX2();
  EXPECT_STREQ(avx512->name(), "avx512");
  // The VNNI backend overrides only gemm_int8: every f64 kernel delegates
  // to the AVX2 backend, so results are BITWISE the AVX2 results (same
  // code runs), not merely close.
  const size_t n = 517;
  const auto x = random_vec(n, 151, -2, 2);
  std::vector<double> a(n), b(n);
  avx2->relu_forward(n, x.data(), a.data());
  avx512->relu_forward(n, x.data(), b.data());
  EXPECT_EQ(a, b);
  a = x;
  b = x;
  avx2->sgd_update(n, 1e-2, x.data(), a.data());
  avx512->sgd_update(n, 1e-2, x.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(avx2->dot(n, x.data(), x.data()), avx512->dot(n, x.data(), x.data()));
}

TEST(BackendSelection, ScopedBackendOverridesAndRestores) {
  const nn::KernelBackend& before = nn::active_backend();
  {
    nn::ScopedBackend scope(&nn::scalar_backend());
    EXPECT_EQ(&nn::active_backend(), &nn::scalar_backend());
    {
      nn::ScopedBackend inner(nullptr);  // null = inherit, not reset
      EXPECT_EQ(&nn::active_backend(), &nn::scalar_backend());
    }
  }
  EXPECT_EQ(&nn::active_backend(), &before);
}

TEST(BackendSelection, ContextPinsBackend) {
  nn::ExecutionContext ctx;
  EXPECT_EQ(ctx.backend(), nullptr);
  ctx.set_backend(&nn::scalar_backend());
  EXPECT_EQ(&ctx.resolved_backend(), &nn::scalar_backend());
}

// ---------------------------------------------------------------------------
// GEMM: avx2 within tight relative tolerance of scalar (FMA bits differ).

void gemm_with(const nn::KernelBackend* be, bool ta, bool tb, size_t m, size_t n,
               size_t k, double alpha, const std::vector<double>& A,
               const std::vector<double>& B, double beta, std::vector<double>& C) {
  nn::ScopedBackend scope(be);
  const size_t lda = ta ? m : k;
  const size_t ldb = tb ? k : n;
  math::gemm(ta, tb, m, n, k, alpha, A.data(), lda, B.data(), ldb, beta, C.data(), n);
}

TEST(BackendParity, GemmAllTransposeCombosWithinUlps) {
  SKIP_WITHOUT_AVX2();
  // Odd sizes cover every micro-kernel remainder path; k spans two panels.
  const size_t m = 67, n = 93, k = 301;
  const auto A = random_vec(m * k, 1);
  const auto B = random_vec(k * n, 2);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      auto Cs = random_vec(m * n, 3);
      auto Cv = Cs;
      gemm_with(&nn::scalar_backend(), ta, tb, m, n, k, 1.3, A, B, 0.7, Cs);
      gemm_with(avx2, ta, tb, m, n, k, 1.3, A, B, 0.7, Cv);
      for (size_t i = 0; i < Cs.size(); ++i) {
        // FMA removes one rounding per multiply-add: error grows like
        // k * eps relative to the accumulated magnitude.
        const double tol = 1e-12 * (std::abs(Cs[i]) + 1.0);
        ASSERT_NEAR(Cs[i], Cv[i], tol) << "ta=" << ta << " tb=" << tb << " i=" << i;
      }
    }
  }
}

std::vector<const nn::KernelBackend*> available_backends() {
  std::vector<const nn::KernelBackend*> backends{&nn::scalar_backend()};
  if (const nn::KernelBackend* be = nn::avx2_backend()) backends.push_back(be);
  if (const nn::KernelBackend* be = nn::avx512_backend()) backends.push_back(be);
  return backends;
}

// Bit-for-bit equality that also holds for NaN outputs.
bool bitwise_equal(const double* x, const double* y, size_t n) {
  return std::memcmp(x, y, n * sizeof(double)) == 0;
}

constexpr const char* kNanOneRowCase = "NaN in one row of a zero group";

struct RowCase {
  std::string label;
  std::vector<double> A;  // m x k, row-major
};

// Inputs for the skinny kernel's skip of all-zero 4-groups of an A row:
// each case edits the same dense m x k base. k % 4 != 0 leaves a tail after
// the last group of the last k-block.
std::vector<RowCase> sparse_row_cases(size_t m, size_t k, uint64_t seed) {
  const auto base = random_vec(m * k, seed);
  std::vector<RowCase> cases;
  auto add = [&](const char* label, auto&& edit) {
    auto A = base;
    for (size_t i = 0; i < m; ++i) edit(i, A.data() + i * k);
    cases.push_back({label, std::move(A)});
  };
  add("dense", [](size_t, double*) {});
  add("aligned zero groups", [&](size_t, double* r) {
    for (size_t p = 0; p < k; ++p)
      if ((p / 4) % 3 != 1) r[p] = 0.0;
  });
  // Runs of 7 zeros starting at every offset mod 4: each covers one whole
  // group plus parts of its neighbours.
  add("unaligned zero runs", [&](size_t i, double* r) {
    for (size_t p = 0; p < k; ++p)
      if ((p + 2 + i) % 11 < 7) r[p] = 0.0;
  });
  add("zero k-block", [&](size_t, double* r) {
    for (size_t p = 256; p < std::min<size_t>(k, 512); ++p) r[p] = 0.0;
  });
  add("zero row 0", [&](size_t i, double* r) {
    if (i == 0) std::fill(r, r + k, 0.0);
  });
  add("signed zeros", [&](size_t, double* r) {
    for (size_t p = 0; p < k; ++p)
      if ((p / 4) % 2 == 0 || p % 5 == 0) r[p] = p % 3 == 0 ? -0.0 : 0.0;
  });
  // A NaN inside an otherwise-zero group must not be skipped: row 0 comes
  // out all NaN.
  add("NaN in zero group", [&](size_t i, double* r) {
    if (i != 0) return;
    std::fill(r, r + k, 0.0);
    r[std::min<size_t>(k - 1, 22)] = std::numeric_limits<double>::quiet_NaN();
  });
  // Group 5 is zero in every row but the last, which holds one NaN there:
  // the group must run, and only the last row's outputs come out NaN.
  add(kNanOneRowCase, [&](size_t i, double* r) {
    for (size_t p = 20; p < std::min<size_t>(k, 24); ++p) r[p] = 0.0;
    if (i == m - 1) r[std::min<size_t>(k - 1, 22)] = std::numeric_limits<double>::quiet_NaN();
  });
  // Every group is nonzero in exactly one row, so no group is zero in all
  // rows but each row skips most of its own.
  add("one row per group", [&](size_t i, double* r) {
    for (size_t p = 0; p < k; ++p)
      if ((p / 4) % m != i) r[p] = 0.0;
  });
  // Within each 4-row block every group is nonzero in exactly one row, so
  // no group of a block is skipped and the other three rows run their ±0
  // terms through the fmadd lanes.
  add("one row per 4-row block", [&](size_t i, double* r) {
    for (size_t p = 0; p < k; ++p)
      if ((p / 4) % 4 != i % 4) r[p] = p % 2 == 0 ? 0.0 : -0.0;
  });
  return cases;
}

// Inputs shaped like a phase-space histogram, for the skinny kernel's list
// of nonzero 4-groups (walked when fewer than half of a k-block's groups
// are nonzero in some row). Cases are per 256-deep k-block; each starts
// from an all-zero A and fills the chosen groups from a dense base.
std::vector<RowCase> histogram_row_cases(size_t m, size_t k, uint64_t seed) {
  const auto base = random_vec(m * k, seed);
  std::vector<RowCase> cases;
  auto add = [&](std::string label, auto&& keep) {
    std::vector<double> A(m * k, 0.0);
    for (size_t i = 0; i < m; ++i)
      for (size_t p = 0; p < k; ++p)
        if (keep(i, p % 256 / 4, p)) A[i * k + p] = base[i * k + p];
    cases.push_back({std::move(label), std::move(A)});
  };
  // Whole 64-value runs (16 groups, one velocity row of a 64 x 64
  // histogram): a k-block holds one run (listed) or two (exactly half).
  add("64-value runs", [](size_t, size_t, size_t p) { return (p / 64) % 3 == 1; });
  // One group per k-block, at a different offset in each block; each row
  // holds one lane of it.
  add("one listed group per k-block", [](size_t i, size_t g, size_t p) {
    return g == (p / 256 * 7 + 3) % 64 && p % 4 == i % 4;
  });
  // The first T groups of every block are nonzero, one lane per row, with
  // T at half of a full block's 64 groups and one either side.
  for (const size_t t : {31, 32, 33})
    add("first " + std::to_string(t) + " groups",
        [t](size_t i, size_t g, size_t p) { return g < t && p % 4 == (g + i) % 4; });
  // The list ends at the last whole group and the k tail after it is
  // nonzero.
  add("list ends at the k tail", [&](size_t, size_t g, size_t p) {
    return p >= (k & ~size_t{3}) - 4 || g % 9 == 2;
  });
  // A NaN inside a listed group of the last row: only that row's outputs
  // come out NaN.
  add("NaN in a listed group", [](size_t, size_t, size_t p) { return (p / 64) % 3 == 1; });
  for (size_t p = 64; p < k; p += 192) cases.back().A[(m - 1) * k + p + 5] =
      std::numeric_limits<double>::quiet_NaN();
  return cases;
}

// The in-place NT path (trans_b, m <= 32: B's rows read in place, A in
// groups of up to 4 rows) must be bitwise the packed path. The reference is
// the same product through the untransposed-B packed path on an explicitly
// transposed W. Row counts cover every 4-row remainder, several groups, the
// largest in-place m (32) and the first packed m (33). Batches of up to 5
// rows run the whole shape grid; the 1024 x 4096 weight (the paper MLP's
// first layer) runs at batch 1 only, and wider batches run only shapes that
// reach every column and k remainder (8- and 4-column groups, the column
// tail, a k tail, partial k-blocks), which keeps the suite fast under the
// thread sanitizer.
TEST(BackendParity, SkinnyNtGemmBitwiseEqualsPackedPath) {
  util::ThreadPool::global().resize(4);
  for (const size_t n : {1, 3, 5, 63, 64, 67, 1024}) {
    for (const size_t k : {1, 7, 255, 256, 257, 513, 4096}) {
      const auto W = random_vec(n * k, 1000 + n * 7 + k);  // n x k, rows contiguous in k
      std::vector<double> Wt(k * n);
      math::transpose(n, k, W.data(), Wt.data());
      for (const size_t m : {1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 31, 32, 33}) {
        if (n * k > (size_t{1} << 20) && m > 1) continue;
        const bool remainder_shape =
            (n == 3 || n == 5 || n == 67) && (k == 7 || k == 257 || k == 513);
        if (m > 5 && !remainder_shape) continue;
        const auto A = random_vec(m * k, 2000 + m);
        const auto C0 = random_vec(m * n, 3000 + m);
        for (const nn::KernelBackend* be : available_backends()) {
          for (const double alpha : {1.0, 0.7}) {
            for (const double beta : {0.0, 1.0, 0.3}) {
              auto packed = C0;
              gemm_with(be, false, false, m, n, k, alpha, A, Wt, beta, packed);
              for (const size_t cap : {1, 2, 4}) {
                util::ScopedMaxWorkers workers(cap);
                auto skinny = C0;
                gemm_with(be, false, true, m, n, k, alpha, A, W, beta, skinny);
                ASSERT_EQ(std::memcmp(skinny.data(), packed.data(), m * n * sizeof(double)),
                          0)
                    << be->name() << " m=" << m << " n=" << n << " k=" << k
                    << " alpha=" << alpha << " beta=" << beta << " cap=" << cap;
              }
            }
          }
        }
      }
    }
  }
  // Histogram-shaped sparsity. n = 79 runs 8- and 4-row streams of B and a
  // column tail; k = 255 and 511 end in a partial block with a k tail.
  const size_t n = 79;
  for (const size_t k : {255, 262, 511, 1024}) {
    const auto W = random_vec(n * k, 51 + k);
    std::vector<double> Wt(k * n);
    math::transpose(n, k, W.data(), Wt.data());
    for (const size_t m : {1, 2, 3, 4, 5, 8, 16, 32}) {
      for (const RowCase& rc : histogram_row_cases(m, k, 52)) {
        for (const nn::KernelBackend* be : available_backends()) {
          for (const double beta : {0.0, 0.3}) {
            auto skinny = random_vec(m * n, 53);
            auto packed = skinny;
            gemm_with(be, false, true, m, n, k, 1.0, rc.A, W, beta, skinny);
            gemm_with(be, false, false, m, n, k, 1.0, rc.A, Wt, beta, packed);
            ASSERT_TRUE(bitwise_equal(skinny.data(), packed.data(), m * n))
                << be->name() << " " << rc.label << " k=" << k << " m=" << m
                << " beta=" << beta;
          }
        }
      }
    }
  }
  util::ThreadPool::global().resize(0);
}

// The in-place path packs a transposed A (k x m) the same way, and skips
// the same zero groups of the packed rows.
TEST(BackendParity, SkinnyNtGemmTransposedABitwiseEqualsPackedPath) {
  const size_t n = 67;
  for (const size_t k : {size_t{513}, size_t{262}}) {
    const auto W = random_vec(n * k, 41);
    std::vector<double> Wt(k * n);
    math::transpose(n, k, W.data(), Wt.data());
    for (const size_t m : {1, 2, 3, 4, 5, 7, 8, 16, 32}) {
      auto cases = sparse_row_cases(m, k, 42);
      for (RowCase& rc : histogram_row_cases(m, k, 44)) cases.push_back(std::move(rc));
      for (const RowCase& rc : cases) {
        std::vector<double> At(k * m);  // k x m
        math::transpose(m, k, rc.A.data(), At.data());
        for (const nn::KernelBackend* be : available_backends()) {
          for (const double alpha : {1.0, 0.7}) {
            for (const double beta : {0.0, 0.3}) {
              auto skinny = random_vec(m * n, 43);
              auto packed = skinny;
              gemm_with(be, true, true, m, n, k, alpha, At, W, beta, skinny);
              gemm_with(be, true, false, m, n, k, alpha, At, Wt, beta, packed);
              ASSERT_TRUE(bitwise_equal(skinny.data(), packed.data(), m * n))
                  << be->name() << " " << rc.label << " k=" << k << " m=" << m
                  << " alpha=" << alpha << " beta=" << beta;
              if (rc.label == "NaN in zero group") {
                for (size_t j = 0; j < n; ++j) ASSERT_TRUE(std::isnan(skinny[j])) << j;
              }
              if (rc.label == kNanOneRowCase || rc.label == "NaN in a listed group") {
                for (size_t i = 0; i < m; ++i)
                  for (size_t j = 0; j < n; ++j)
                    ASSERT_EQ(std::isnan(skinny[i * n + j]), i == m - 1)
                        << be->name() << " m=" << m << " i=" << i << " j=" << j;
              }
            }
          }
        }
      }
    }
  }
}

// A dense forward at batch 1..5 (the in-place path) is bitwise the leading
// rows of the same product through the packed path — the untransposed-B
// GEMM on an explicitly transposed W, plus the bias — on every backend,
// dense or sparse input.
TEST(BackendParity, DenseBatchOneForwardBitwiseEqualsBatchedRow) {
  math::Rng rng(17);
  const size_t in = 301, out = 131, batch = 5;
  nn::Dense dense(in, out, rng);
  const std::vector<double> W(dense.weight().data(), dense.weight().data() + out * in);
  std::vector<double> Wt(in * out);
  math::transpose(out, in, W.data(), Wt.data());
  for (const RowCase& rc : sparse_row_cases(batch, in, 27)) {
    for (const nn::KernelBackend* be : available_backends()) {
      std::vector<double> packed(batch * out);
      gemm_with(be, false, false, batch, out, in, 1.0, rc.A, Wt, 0.0, packed);
      be->add_bias_rows(batch, out, dense.bias().data(), packed.data());
      nn::ExecutionContext ctx(0, be);
      for (size_t m = 1; m <= batch; ++m) {
        nn::Tensor head({m, in});
        std::copy(rc.A.begin(), rc.A.begin() + m * in, head.data());
        const nn::Tensor& ym = dense.forward(ctx, head, false);
        ASSERT_TRUE(bitwise_equal(packed.data(), ym.data(), m * out))
            << be->name() << " " << rc.label << " m=" << m;
      }
    }
  }
}

TEST(BackendParity, Int8GemmBitwiseAcrossTileRemainders) {
  SKIP_WITHOUT_AVX2();
  // Unlike the f64 GEMM (FMA reassociation => ulp tolerance above), the
  // int8 kernel's contract is BITWISE: exact int32 sums, one shared dequant
  // expression. Sizes exercise the AVX2 4x2 tile remainders, the k%32
  // tails, and (when present) the AVX-512 kernel's 64-wide steps and tails.
  const nn::KernelBackend* avx512 = nn::avx512_backend();  // may be null
  for (const size_t m : {size_t{1}, size_t{4}, size_t{7}}) {
    for (const size_t n : {size_t{1}, size_t{2}, size_t{9}}) {
      for (const size_t k :
           {size_t{1}, size_t{31}, size_t{32}, size_t{63}, size_t{64}, size_t{97},
            size_t{200}}) {
        const auto Af = random_vec(m * k, 71 + m, -2, 2);
        const auto Bf = random_vec(n * k, 72 + n, -2, 2);
        std::vector<int8_t> Aq(m * k), Bq(n * k);
        std::vector<double> sa(m), sb(n);
        nn::quantize_rows_fast(Af.data(), m, k, Aq.data(), sa.data());
        nn::quantize_rows_fast(Bf.data(), n, k, Bq.data(), sb.data());
        std::vector<double> Cs(m * n), Cv(m * n);
        nn::scalar_backend().gemm_int8(m, n, k, Aq.data(), sa.data(), Bq.data(),
                                       sb.data(), Cs.data(), n);
        avx2->gemm_int8(m, n, k, Aq.data(), sa.data(), Bq.data(), sb.data(),
                        Cv.data(), n);
        ASSERT_EQ(Cs, Cv) << "m=" << m << " n=" << n << " k=" << k;
        if (avx512 != nullptr) {
          std::vector<double> Cz(m * n);
          avx512->gemm_int8(m, n, k, Aq.data(), sa.data(), Bq.data(), sb.data(),
                            Cz.data(), n);
          ASSERT_EQ(Cs, Cz) << "avx512 m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(BackendParity, Int8GemmVnniExtremesBitwise) {
  SKIP_WITHOUT_AVX512();
  // The vpdpbusd rewrite (|a| * sign-transfer(b, a)) must handle the code
  // extremes and zeros exactly: all-±127 operands with zeros sprinkled in,
  // at a depth covering several 64-wide steps plus a tail.
  const size_t m = 5, n = 3, k = 200;
  std::vector<int8_t> A(m * k), B(n * k);
  math::Rng rng(153);
  auto extreme = [&rng]() -> int8_t {
    const double u = rng.uniform(0, 1);
    if (u < 0.2) return 0;
    return u < 0.6 ? int8_t{-127} : int8_t{127};
  };
  for (auto& v : A) v = extreme();
  for (auto& v : B) v = extreme();
  const std::vector<double> sa(m, 1.0), sb(n, 1.0);
  std::vector<double> Cs(m * n), Cz(m * n);
  nn::scalar_backend().gemm_int8(m, n, k, A.data(), sa.data(), B.data(), sb.data(),
                                 Cs.data(), n);
  avx512->gemm_int8(m, n, k, A.data(), sa.data(), B.data(), sb.data(), Cz.data(), n);
  EXPECT_EQ(Cs, Cz);
}

TEST(BackendParity, Int16GemmBitwiseAcrossTileRemainders) {
  SKIP_WITHOUT_AVX2();
  // Same bitwise contract as the int8 kernel: exact int64 sums, shared
  // dequant. Sizes exercise the AVX2 2x2 tile remainders and k%16 tails,
  // with all-±32767 rows hitting the pairwise-madd ceiling.
  for (const size_t m : {size_t{1}, size_t{2}, size_t{5}}) {
    for (const size_t n : {size_t{1}, size_t{2}, size_t{9}}) {
      for (const size_t k : {size_t{1}, size_t{15}, size_t{16}, size_t{49}}) {
        const auto Af = random_vec(m * k, 75 + m, -2, 2);
        const auto Bf = random_vec(n * k, 76 + n, -2, 2);
        std::vector<int16_t> Aq(m * k), Bq(n * k);
        std::vector<double> sa(m), sb(n);
        nn::quantize_rows_fast(Af.data(), m, k, Aq.data(), sa.data());
        nn::quantize_rows_fast(Bf.data(), n, k, Bq.data(), sb.data());
        for (size_t p = 0; p < k; ++p) Aq[p] = (p % 2 == 0) ? 32767 : -32767;
        std::vector<double> Cs(m * n), Cv(m * n);
        nn::scalar_backend().gemm_int16(m, n, k, Aq.data(), sa.data(), Bq.data(),
                                        sb.data(), Cs.data(), n);
        avx2->gemm_int16(m, n, k, Aq.data(), sa.data(), Bq.data(), sb.data(),
                         Cv.data(), n);
        ASSERT_EQ(Cs, Cv) << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(BackendParity, DenseAndConvForwardBackwardWithinUlps) {
  SKIP_WITHOUT_AVX2();
  math::Rng rng(11);
  nn::Dense dense(37, 29, rng);
  nn::Conv2DConfig ccfg;
  ccfg.in_channels = 3;
  ccfg.out_channels = 5;
  nn::Conv2D conv(ccfg, rng);
  auto xd = random_tensor({9, 37}, 21);
  auto gd = random_tensor({9, 29}, 22);
  auto xc = random_tensor({3, 3, 9, 9}, 23);
  auto gc = random_tensor({3, 5, 9, 9}, 24);

  auto run = [&](const nn::KernelBackend* be, nn::Tensor& dw, nn::Tensor& cw) {
    nn::ExecutionContext ctx(0, be);
    dense.zero_grad();
    conv.zero_grad();
    nn::Tensor yd = dense.forward(ctx, xd, true);
    nn::Tensor gid = dense.backward(ctx, gd);
    nn::Tensor yc = conv.forward(ctx, xc, true);
    nn::Tensor gic = conv.backward(ctx, gc);
    dw = *dense.params()[0].grad;
    cw = *conv.params()[0].grad;
    // Concatenate the outputs we compare into one flat tensor list.
    std::vector<double> all;
    all.insert(all.end(), yd.data(), yd.data() + yd.size());
    all.insert(all.end(), gid.data(), gid.data() + gid.size());
    all.insert(all.end(), yc.data(), yc.data() + yc.size());
    all.insert(all.end(), gic.data(), gic.data() + gic.size());
    return all;
  };

  nn::Tensor dws, cws, dwv, cwv;
  const auto scalar = run(&nn::scalar_backend(), dws, cws);
  const auto vec = run(avx2, dwv, cwv);
  ASSERT_EQ(scalar.size(), vec.size());
  for (size_t i = 0; i < scalar.size(); ++i)
    ASSERT_NEAR(scalar[i], vec[i], 1e-12 * (std::abs(scalar[i]) + 1.0)) << "i=" << i;
  for (size_t i = 0; i < dws.size(); ++i)
    ASSERT_NEAR(dws[i], dwv[i], 1e-12 * (std::abs(dws[i]) + 1.0));
  for (size_t i = 0; i < cws.size(); ++i)
    ASSERT_NEAR(cws[i], cwv[i], 1e-12 * (std::abs(cws[i]) + 1.0));
}

// ---------------------------------------------------------------------------
// Elementwise/activation/optimizer kernels: bitwise identical across
// backends (same operation order, no FMA).

TEST(BackendParity, ActivationsBitwise) {
  SKIP_WITHOUT_AVX2();
  const nn::KernelBackend& scalar = nn::scalar_backend();
  const size_t n = 1037;  // odd: exercises the vector tail
  const auto x = random_vec(n, 31, -2, 2);
  const auto go = random_vec(n, 32, -2, 2);
  std::vector<double> a(n), b(n), xca(n), xcb(n);

  scalar.relu_forward(n, x.data(), a.data());
  avx2->relu_forward(n, x.data(), b.data());
  EXPECT_EQ(a, b);
  scalar.relu_backward(n, x.data(), go.data(), a.data());
  avx2->relu_backward(n, x.data(), go.data(), b.data());
  EXPECT_EQ(a, b);
  scalar.leaky_relu_forward(n, 0.01, x.data(), xca.data(), a.data());
  avx2->leaky_relu_forward(n, 0.01, x.data(), xcb.data(), b.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(xca, xcb);
  scalar.leaky_relu_backward(n, 0.01, x.data(), go.data(), a.data());
  avx2->leaky_relu_backward(n, 0.01, x.data(), go.data(), b.data());
  EXPECT_EQ(a, b);
  scalar.tanh_forward(n, x.data(), a.data());
  avx2->tanh_forward(n, x.data(), b.data());
  EXPECT_EQ(a, b);  // same libm path in both backends
  scalar.tanh_backward(n, x.data(), go.data(), a.data());
  avx2->tanh_backward(n, x.data(), go.data(), b.data());
  EXPECT_EQ(a, b);

  a = go;
  b = go;
  scalar.axpy(n, 1.7, x.data(), a.data());
  avx2->axpy(n, 1.7, x.data(), b.data());
  EXPECT_EQ(a, b);

  a = go;
  b = go;
  scalar.add_bias_rows(17, 61, x.data(), a.data());  // 17*61 = 1037
  avx2->add_bias_rows(17, 61, x.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(BackendParity, OptimizerUpdatesBitwise) {
  SKIP_WITHOUT_AVX2();
  const nn::KernelBackend& scalar = nn::scalar_backend();
  const size_t n = 517;
  const auto g = random_vec(n, 41);

  auto ws = random_vec(n, 42), wv = ws;
  scalar.sgd_update(n, 1e-2, g.data(), ws.data());
  avx2->sgd_update(n, 1e-2, g.data(), wv.data());
  EXPECT_EQ(ws, wv);

  auto vels = random_vec(n, 43), velv = vels;
  scalar.sgd_momentum_update(n, 1e-2, 0.9, g.data(), vels.data(), ws.data());
  avx2->sgd_momentum_update(n, 1e-2, 0.9, g.data(), velv.data(), wv.data());
  EXPECT_EQ(ws, wv);
  EXPECT_EQ(vels, velv);

  auto ms = random_vec(n, 44, 0, 1), mv = ms;
  auto vs = random_vec(n, 45, 0, 1), vv = vs;
  for (int step = 1; step <= 3; ++step) {
    const double bc1 = 1.0 - std::pow(0.9, step);
    const double bc2 = 1.0 - std::pow(0.999, step);
    scalar.adam_update(n, 1e-3, 0.9, 0.999, bc1, bc2, 1e-8, g.data(), ms.data(),
                       vs.data(), ws.data());
    avx2->adam_update(n, 1e-3, 0.9, 0.999, bc1, bc2, 1e-8, g.data(), mv.data(),
                      vv.data(), wv.data());
  }
  EXPECT_EQ(ws, wv);
  EXPECT_EQ(ms, mv);
  EXPECT_EQ(vs, vv);
}

// ---------------------------------------------------------------------------
// FFT kernels: bitwise identical across backends. The AVX2 butterflies mirror
// the scalar complex-product order (re = ar*br - ai*bi, im = ar*bi + ai*br —
// addsub only commutes the final addition), so whole transforms match bit for
// bit, not merely to rounding.

TEST(BackendParity, FftButterflyPassesBitwise) {
  SKIP_WITHOUT_AVX2();
  const nn::KernelBackend& scalar = nn::scalar_backend();
  // The pass kernels only demand unit-stride interleaved data and a twiddle
  // table per span — any complex values expose order-of-operations drift, so
  // random "twiddles" are a stronger probe than actual roots of unity.
  for (const size_t len : {size_t{2}, size_t{4}, size_t{8}, size_t{32}}) {
    const size_t n = 128;  // several spans per pass
    const auto tw = random_vec(len, 201 + len);  // len/2 complex entries
    auto a = random_vec(2 * n, 202 + len);
    auto b = a;
    scalar.fft_radix2_pass(n, len, tw.data(), a.data());
    avx2->fft_radix2_pass(n, len, tw.data(), b.data());
    EXPECT_EQ(a, b) << "radix-2 pass len=" << len;
  }
  for (const size_t len : {size_t{4}, size_t{8}, size_t{16}, size_t{64}}) {
    const size_t n = 256;
    const size_t q = len / 4;
    const auto twA = random_vec(2 * q, 211 + len);
    const auto twB = random_vec(2 * q, 212 + len);
    const auto twC = random_vec(2 * q, 213 + len);
    auto a = random_vec(2 * n, 214 + len);
    auto b = a;
    scalar.fft_radix4_pass(n, len, twA.data(), twB.data(), twC.data(), a.data());
    avx2->fft_radix4_pass(n, len, twA.data(), twB.data(), twC.data(), b.data());
    EXPECT_EQ(a, b) << "radix-4 pass len=" << len;
  }
  const size_t n = 517;  // odd: exercises the cplx_mul vector tail
  const auto x = random_vec(2 * n, 221);
  const auto y = random_vec(2 * n, 222);
  std::vector<double> a(2 * n), b(2 * n);
  scalar.cplx_mul(n, x.data(), y.data(), a.data());
  avx2->cplx_mul(n, x.data(), y.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(BackendParity, FftPlanTransformsBitwise) {
  SKIP_WITHOUT_AVX2();
  // Whole planned transforms — radix-4/2 schedules, Bluestein convolutions,
  // and the packed real paths — produce identical bits on both backends.
  for (const size_t n : {size_t{4}, size_t{64}, size_t{100}, size_t{251},
                         size_t{1000}, size_t{1024}}) {
    const math::FftPlan& plan = math::get_fft_plan(n);
    math::Rng rng(301 + n);
    std::vector<math::cplx> sig(n);
    for (auto& c : sig) c = math::cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto real = random_vec(n, 302 + n);

    auto run = [&](const nn::KernelBackend* be) {
      nn::ScopedBackend scope(be);
      auto fwd = sig;
      plan.forward(fwd.data());
      auto inv = sig;
      plan.inverse(inv.data());
      std::vector<math::cplx> spec(plan.spectrum_size());
      plan.rfft(real.data(), spec.data());
      std::vector<double> back(n);
      plan.irfft(spec.data(), back.data());
      return std::make_tuple(fwd, inv, spec, back);
    };
    const auto s = run(&nn::scalar_backend());
    const auto v = run(avx2);
    EXPECT_EQ(std::get<0>(s), std::get<0>(v)) << "forward n=" << n;
    EXPECT_EQ(std::get<1>(s), std::get<1>(v)) << "inverse n=" << n;
    EXPECT_EQ(std::get<2>(s), std::get<2>(v)) << "rfft n=" << n;
    EXPECT_EQ(std::get<3>(s), std::get<3>(v)) << "irfft n=" << n;
  }
}

// ---------------------------------------------------------------------------
// PIC kernels: bitwise identical across backends for every shape.

pic::Species parity_species(const pic::Grid1D& grid, size_t count) {
  math::Rng rng(99);
  pic::TwoStreamParams p;
  p.v0 = 0.2;
  p.vth = 0.01;
  return pic::load_two_stream(grid, count, p, rng);
}

// Particles whose 4-wide groups mix lanes that stay in [0, L) with lanes the
// drift carries out of it: within v*dt of 0 and of L moving either way, a
// jump of more than a box, a drift to exactly L, and one to just below 0
// (the case where fmod + L rounds to L). The field must be zero on nodes
// 61..63, 0 and 1, so that these two lanes keep their velocities.
pic::Species box_edge_species(double L, double dt) {
  const double vdt = 0.25 * dt;  // power-of-two scaling: exact
  double x_to_L = L - vdt;       // nudge until x + v*dt rounds to exactly L
  while (x_to_L + vdt < L) x_to_L = std::nextafter(x_to_L, L);
  while (x_to_L + vdt > L) x_to_L = std::nextafter(x_to_L, 0.0);
  EXPECT_EQ(x_to_L + vdt, L);
  const double edge = 0.2 * vdt;
  // {x, v} in groups of 4; the last two particles form the scalar tail.
  // Groups 3 and 4 hold the exactly-L and below-0 lanes beside three lanes
  // that stay in the box, so only the vector in-box test can reject them.
  const double xv[][2] = {
      {1.0, 0.1},   {edge, -0.25},  {L - edge, 0.25},  {0.5, -0.1},
      {edge, 0.25}, {L - edge, -0.25}, {0.3, 0.05},    {1.7, -0.05},
      {1.0, 15.0},  {edge, -0.25},  {L - edge, 0.25},  {0.6, 0.1},
      {0.3, 0.1},   {x_to_L, 0.25}, {1.5, -0.1},       {0.7, 0.2},
      {0.0, -1e-17}, {0.8, 0.1},    {1.3, -0.2},       {1.9, 0.1},
      {0.8, -15.0}, {L - edge, -0.25}, {edge, 0.25},   {1.2, 2.0 * L / dt},
      {edge, -0.25}, {1.1, 0.0}};
  pic::Species s = pic::Species::electrons(std::size(xv), L);
  for (const auto& p : xv) s.add(p[0], p[1]);
  return s;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(BackendParity, PicGatherLeapfrogDepositBitwisePerShape) {
  SKIP_WITHOUT_AVX2();
  const pic::Grid1D grid(64, 2.0534);
  math::Rng rng(7);
  std::vector<double> E(64);
  for (auto& e : E) e = rng.uniform(-0.05, 0.05);
  // Signed-zero corner: the gather accumulator must start at +0.0 exactly
  // like the scalar loop, or an E*w product of -0.0 flips the output bit.
  E[0] = -0.0;
  E[7] = 0.0;

  for (const auto shape : {pic::Shape::NGP, pic::Shape::CIC, pic::Shape::TSC}) {
    auto run = [&](const nn::KernelBackend* be) {
      nn::ScopedBackend scope(be);
      auto species = parity_species(grid, 4006);  // not a multiple of 4: vector tail
      std::vector<double> Ep;
      pic::gather_to_particles(grid, shape, E, species, Ep);
      pic::stagger_velocities_back(grid, shape, E, species, 0.2);
      for (int step = 0; step < 3; ++step)
        pic::leapfrog_step(grid, shape, E, species, 0.2);
      auto rho = grid.make_field();
      pic::deposit_charge(grid, shape, species, rho);
      return std::make_tuple(Ep, species.x(), species.v(), rho);
    };
    const auto scalar = run(&nn::scalar_backend());
    const auto vec = run(avx2);
    EXPECT_EQ(std::get<0>(scalar), std::get<0>(vec)) << pic::shape_name(shape);
    EXPECT_EQ(std::get<1>(scalar), std::get<1>(vec)) << pic::shape_name(shape);
    EXPECT_EQ(std::get<2>(scalar), std::get<2>(vec)) << pic::shape_name(shape);
    EXPECT_EQ(std::get<3>(scalar), std::get<3>(vec)) << pic::shape_name(shape);
  }

  // Mixed in-box / out-of-box groups: x, v and rho bitwise on every backend.
  std::vector<double> E_edge = E;
  for (const size_t node : {61, 62, 63, 0, 1}) E_edge[node] = 0.0;
  const double dt = 0.2;
  std::vector<const nn::KernelBackend*> vector_backends{avx2};
  if (const nn::KernelBackend* avx512 = nn::avx512_backend()) vector_backends.push_back(avx512);
  for (const auto shape : {pic::Shape::NGP, pic::Shape::CIC, pic::Shape::TSC}) {
    auto run = [&](const nn::KernelBackend* be) {
      nn::ScopedBackend scope(be);
      auto species = box_edge_species(grid.length(), dt);
      pic::leapfrog_step(grid, shape, E_edge, species, dt);
      const auto x1 = species.x();
      for (int step = 0; step < 2; ++step)
        pic::leapfrog_step(grid, shape, E_edge, species, dt);
      auto rho = grid.make_field();
      pic::deposit_charge(grid, shape, species, rho);
      return std::make_tuple(x1, species.x(), species.v(), rho);
    };
    const auto scalar = run(&nn::scalar_backend());
    EXPECT_EQ(std::get<0>(scalar)[13], 0.0) << "drift to exactly L must wrap to 0";
    EXPECT_EQ(std::get<0>(scalar)[16], 0.0) << "drift to just below 0 must wrap to 0";
    for (const double xp : std::get<1>(scalar)) {
      EXPECT_GE(xp, 0.0);
      EXPECT_LT(xp, grid.length());
    }
    for (const nn::KernelBackend* be : vector_backends) {
      const auto vec = run(be);
      const std::string what = std::string(be->name()) + " " + pic::shape_name(shape);
      EXPECT_TRUE(same_bits(std::get<0>(scalar), std::get<0>(vec))) << "x after 1 step, " << what;
      EXPECT_TRUE(same_bits(std::get<1>(scalar), std::get<1>(vec))) << "x, " << what;
      EXPECT_TRUE(same_bits(std::get<2>(scalar), std::get<2>(vec))) << "v, " << what;
      EXPECT_TRUE(same_bits(std::get<3>(scalar), std::get<3>(vec))) << "rho, " << what;
    }
  }
}

// ---------------------------------------------------------------------------
// NGP phase-space binning: the histogram and the clamp count are bitwise
// identical on every backend.

struct Binned {
  std::vector<double> hist;
  size_t clamped;
};

Binned bin_on(const nn::KernelBackend* be, const phase_space::PhaseSpaceBinner& binner,
              const std::vector<double>& x, const std::vector<double>& v) {
  nn::ScopedBackend scope(be);
  Binned b{binner.bin(x, v), 0};
  b.clamped = binner.clamped_particles();
  return b;
}

void expect_bins_match(const phase_space::PhaseSpaceBinner& binner,
                       const std::vector<double>& x, const std::vector<double>& v,
                       const std::string& label) {
  const Binned ref = bin_on(&nn::scalar_backend(), binner, x, v);
  EXPECT_EQ(phase_space::PhaseSpaceBinner::total_count(ref.hist), static_cast<double>(x.size()))
      << label;
  for (const nn::KernelBackend* be : available_backends()) {
    const Binned got = bin_on(be, binner, x, v);
    EXPECT_TRUE(same_bits(ref.hist, got.hist)) << be->name() << " " << label;
    EXPECT_EQ(ref.clamped, got.clamped) << be->name() << " " << label;
  }
}

TEST(BackendParity, BinNgpBitwiseAcrossBackends) {
  const phase_space::BinnerConfig bc;  // the paper's 64 x 64 grid
  const phase_space::PhaseSpaceBinner binner(bc);
  const double L = bc.length;
  const double inf = std::numeric_limits<double>::infinity();
  // One edge value in each of lanes 0-3 of the first group and in the two
  // tail particles; the other particles sit well inside both axes.
  auto each_lane = [&](const char* axis, double value) {
    for (size_t lane = 0; lane < 6; ++lane) {
      std::vector<double> x{0.3, 0.9, 1.4, 1.9, 0.1, 1.2};
      std::vector<double> v{0.1, -0.2, 0.3, -0.4, 0.05, -0.05};
      (axis[0] == 'x' ? x : v)[lane] = value;
      expect_bins_match(binner, x, v,
                        std::string(axis) + "=" + std::to_string(value) + " lane " +
                            std::to_string(lane));
    }
  };
  for (const double x : {0.0, std::nextafter(L, 0.0), L, -1e-18, 2.0 * L + 0.25}) each_lane("x", x);
  for (const double v : {bc.vmin, bc.vmax, std::nextafter(bc.vmin, -inf),
                         std::nextafter(bc.vmax, inf), -inf, inf})
    each_lane("v", v);
  // A group of four with every lane clamped, beside an in-range tail.
  expect_bins_match(binner, {0.2, 0.4, 0.6, 0.8, 1.0}, {-0.7, 0.7, -5.0, 5.0, 0.0},
                    "four clamped lanes");
  // n = 0..9 covers every tail length after zero, one and two groups.
  math::Rng rng(31);
  for (size_t n = 0; n <= 9; ++n) {
    std::vector<double> x(n), v(n);
    for (size_t p = 0; p < n; ++p) {
      x[p] = rng.uniform(0.0, L);
      v[p] = rng.uniform(-0.8, 0.8);  // some beyond [vmin, vmax]
    }
    expect_bins_match(binner, x, v, "n=" + std::to_string(n));
  }
  // A 64k two-stream species on the paper grid.
  const auto species = parity_species(pic::Grid1D(64, L), 64000);
  expect_bins_match(binner, species.x(), species.v(), "64k two-stream");
}

// ---------------------------------------------------------------------------
// Worker-count invariance *within* each backend: a full training step and a
// parallel deposit must be bitwise identical at widths 1/2/8. The global
// pool is resized mid-test so the widths run against real worker threads.

std::vector<double> train_step_result(const nn::KernelBackend* be, size_t width) {
  util::ScopedMaxWorkers cap(width);
  nn::ExecutionContext ctx(0, be);
  nn::MlpSpec spec;
  spec.input_dim = 48;
  spec.output_dim = 8;
  spec.hidden = 32;
  spec.depth = 2;
  spec.seed = 5;
  nn::Sequential model = nn::build_mlp(spec);
  nn::ScopedBackend scope(be);  // loss + optimizer route here too
  nn::MSELoss loss;
  nn::Adam adam(1e-3);
  auto params = model.params();
  auto x = random_tensor({16, 48}, 61);
  auto y = random_tensor({16, 8}, 62);
  std::vector<double> out;
  for (int step = 0; step < 3; ++step) {
    const nn::Tensor& pred = model.forward(ctx, x, true);
    out.push_back(loss.forward(pred, y));
    for (auto& p : params) p.grad->zero();
    model.backward(ctx, loss.backward());
    adam.step(params);
  }
  for (const auto& p : params)
    out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
  return out;
}

std::vector<double> deposit_result(const nn::KernelBackend* be, size_t width) {
  util::ScopedMaxWorkers cap(width);
  nn::ScopedBackend scope(be);
  const pic::Grid1D grid(64, 2.0534);
  auto species = parity_species(grid, 50'000);  // several deposit chunks
  auto rho = grid.make_field();
  pic::deposit_charge(grid, pic::Shape::CIC, species, rho);
  return rho;
}

TEST(BackendInvariance, WorkerCountInvariantWithinEachBackend) {
  std::vector<const nn::KernelBackend*> backends{&nn::scalar_backend()};
  if (const nn::KernelBackend* avx2 = nn::avx2_backend()) backends.push_back(avx2);

  // Exercise the widths against an actually multi-threaded pool, resized
  // once here and restored below (PR satellite: ThreadPool::resize).
  util::ThreadPool::global().resize(4);
  for (const nn::KernelBackend* be : backends) {
    const auto train1 = train_step_result(be, 1);
    const auto deposit1 = deposit_result(be, 1);
    for (const size_t width : {size_t{2}, size_t{8}}) {
      // NN kernels: bitwise identical at every width (GEMM tiles own their
      // k-order; elementwise kernels are pure maps; MSE reduces over fixed
      // blocks).
      EXPECT_EQ(train1, train_step_result(be, width))
          << be->name() << " training step changed bits at width " << width;
      // Deposit: the per-worker-buffer reduction is deterministic FOR a
      // width (bitwise re-runnable) and round-off-close across widths —
      // the pre-backend contract, unchanged by backend choice.
      const auto deposit_w = deposit_result(be, width);
      EXPECT_EQ(deposit_w, deposit_result(be, width))
          << be->name() << " deposit not reproducible at width " << width;
      ASSERT_EQ(deposit1.size(), deposit_w.size());
      for (size_t i = 0; i < deposit_w.size(); ++i)
        EXPECT_NEAR(deposit1[i], deposit_w[i], 1e-12)
            << be->name() << " deposit drifted at width " << width << " node " << i;
    }
  }
  util::ThreadPool::global().resize(0);
}

}  // namespace
