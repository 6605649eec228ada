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
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
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
#include "pic/simulation.hpp"
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
  // The avx512 backend overrides only gemm_int8 and the skinny NT GEMM,
  // which keeps the AVX2 kernel's per-output sequence: every other f64
  // kernel is the AVX2 backend's, so results are BITWISE the AVX2 results
  // (same code runs), not merely close.
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

  // The gather, deposit and binning kernels are the AVX2 functions
  // themselves. The push and stagger are the backend's own zmm kernels;
  // PicPushStaggerBitwiseAcrossRangesAndGrids checks their bits.
  for (int shape = 0; shape < 3; ++shape) {
    EXPECT_EQ(avx512->pic_gather(shape), avx2->pic_gather(shape)) << "shape " << shape;
    EXPECT_EQ(avx512->pic_deposit(shape), avx2->pic_deposit(shape)) << "shape " << shape;
  }
  EXPECT_EQ(avx512->bin_ngp(), avx2->bin_ngp());

  // The FFT passes and the skinny NT GEMM give the AVX2 bits.
  for (const size_t len : {size_t{2}, size_t{8}}) {
    const auto tw = random_vec(len, 152 + len);
    auto u = random_vec(2 * 64, 153 + len), w = u;
    avx2->fft_radix2_pass(64, len, tw.data(), u.data());
    avx512->fft_radix2_pass(64, len, tw.data(), w.data());
    EXPECT_EQ(u, w) << "radix-2 pass len=" << len;
  }
  for (const size_t len : {size_t{4}, size_t{16}}) {
    const size_t q = len / 4;
    const auto twA = random_vec(2 * q, 154 + len);
    const auto twB = random_vec(2 * q, 155 + len);
    const auto twC = random_vec(2 * q, 156 + len);
    auto u = random_vec(2 * 64, 157 + len), w = u;
    avx2->fft_radix4_pass(64, len, twA.data(), twB.data(), twC.data(), u.data());
    avx512->fft_radix4_pass(64, len, twA.data(), twB.data(), twC.data(), w.data());
    EXPECT_EQ(u, w) << "radix-4 pass len=" << len;
  }
  const auto xc = random_vec(2 * n, 158);
  const auto yc = random_vec(2 * n, 159);
  a.assign(2 * n, 0.0);
  b.assign(2 * n, 0.0);
  avx2->cplx_mul(n, xc.data(), yc.data(), a.data());
  avx512->cplx_mul(n, xc.data(), yc.data(), b.data());
  EXPECT_EQ(a, b);
  const size_t mr = 3, nb = 13, kb = 37;
  const auto arows = random_vec(mr * kb, 160);
  const auto B = random_vec(nb * kb, 161);
  a = random_vec(mr * nb, 162);
  b = a;
  avx2->gemm_nt_block(mr, nb, kb, arows.data(), B.data(), kb, a.data(), nb);
  avx512->gemm_nt_block(mr, nb, kb, arows.data(), B.data(), kb, b.data(), nb);
  EXPECT_EQ(a, b);
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

// The SIMD backends this host and build provide: avx2, then avx512.
std::vector<const nn::KernelBackend*> vector_backends() {
  std::vector<const nn::KernelBackend*> backends = available_backends();
  backends.erase(backends.begin());  // scalar
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

// gemm_nt_block called directly, over every row count it takes (1..16),
// column counts around the 4-, 8- and 16-column groups and depths around
// the 4- and 8-deep k groups: on each backend it is bitwise that backend's
// gemm_block over the explicitly transposed panel, and avx512 is bitwise
// avx2. B and C are read and written at strides wider than the panel. The
// A rows hold all-zero 4- and 8-groups (skippable), a lone -0 in an
// otherwise zero block, a NaN in an otherwise zero group, and sparse
// histogram-like rows whose nonzero runs sit at a different offset in each
// row.
TEST(BackendParity, SkinnyNtBlockBitwiseAcrossBackendsRowsAndDepths) {
  const std::vector<size_t> nbs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64};
  const std::vector<size_t> kbs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 256};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const nn::KernelBackend* avx2 = nn::avx2_backend();
  const nn::KernelBackend* avx512 = nn::avx512_backend();
  for (const size_t kb : kbs) {
    const size_t ldb = kb + 3;
    for (const size_t mr : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}) {
      const auto dense = random_vec(mr * kb, 600 + kb * 17 + mr);
      std::vector<std::pair<std::string, std::vector<double>>> cases;
      cases.emplace_back("dense", dense);
      auto zero_groups = dense;  // 4-group 1 of every 3 and 8-group 2 of every 3
      for (size_t i = 0; i < mr; ++i)
        for (size_t p = 0; p < kb; ++p)
          if ((p / 4) % 3 == 1 || (p / 8) % 3 == 2) zero_groups[i * kb + p] = 0.0;
      cases.emplace_back("zero 4- and 8-groups", zero_groups);
      std::vector<double> lone(mr * kb, 0.0);
      lone[(mr / 2) * kb + kb / 2] = -0.0;
      cases.emplace_back("lone -0", lone);
      auto nan_group = zero_groups;  // a NaN in an all-zero group of the last row
      if (kb >= 8) nan_group[(mr - 1) * kb + 5] = nan;
      cases.emplace_back("NaN in a zero group", nan_group);
      std::vector<double> histogram(mr * kb, 0.0);
      for (size_t i = 0; i < mr; ++i)
        for (size_t p = 0; p < kb; ++p)
          if ((p + 11 * i) % 64 < 10) histogram[i * kb + p] = dense[i * kb + p];
      cases.emplace_back("histogram rows", histogram);
      for (const size_t nb : nbs) {
        const size_t ldc = nb + 2;
        const auto B = random_vec(nb * ldb, 700 + nb * 13 + kb);
        std::vector<double> Bt(kb * nb);  // the kb x nb panel gemm_block reads
        for (size_t j = 0; j < nb; ++j)
          for (size_t p = 0; p < kb; ++p) Bt[p * nb + j] = B[j * ldb + p];
        const auto C0 = random_vec(mr * ldc, 800 + nb + mr);
        for (const auto& [label, A] : cases) {
          std::vector<std::vector<double>> nt;
          for (const nn::KernelBackend* be : available_backends()) {
            auto packed = C0;
            auto skinny = C0;
            be->gemm_block(mr, nb, kb, A.data(), Bt.data(), packed.data(), ldc);
            be->gemm_nt_block(mr, nb, kb, A.data(), B.data(), ldb, skinny.data(), ldc);
            ASSERT_TRUE(bitwise_equal(skinny.data(), packed.data(), skinny.size()))
                << be->name() << " " << label << " mr=" << mr << " nb=" << nb
                << " kb=" << kb;
            if (be == avx2 || be == avx512) nt.push_back(std::move(skinny));
          }
          if (nt.size() == 2) {
            ASSERT_TRUE(bitwise_equal(nt[0].data(), nt[1].data(), nt[0].size()))
                << "avx512 vs avx2 " << label << " mr=" << mr << " nb=" << nb
                << " kb=" << kb;
          }
        }
      }
    }
  }
}

// A Sequential forward over m rows is bitwise the same m rows forwarded one
// at a time, for every batch size the skinny path and the packed path take
// (1..33) and on every backend: the CI MLP (1024 -> 3 x 128 -> 64) on
// histogram-like sparse rows and on dense rows.
TEST(BackendParity, SequentialBatchedForwardEqualsRowByRow) {
  nn::MlpSpec spec;
  spec.input_dim = 32 * 32;
  spec.output_dim = 64;
  spec.hidden = 128;
  nn::Sequential model = nn::build_mlp(spec);
  const size_t in = spec.input_dim, out = spec.output_dim, rows = 33;
  auto x = random_tensor({rows, in}, 61);
  for (size_t r = 0; r < rows; r += 2)  // even rows sparse, odd rows dense
    for (size_t p = 0; p < in; ++p)
      if ((p + 37 * r) % 128 >= 24) x[r * in + p] = 0.0;
  for (const nn::KernelBackend* be : available_backends()) {
    nn::ExecutionContext ctx(0, be);
    std::vector<double> serial(rows * out);
    for (size_t r = 0; r < rows; ++r) {
      nn::Tensor row({1, in});
      std::copy(x.data() + r * in, x.data() + (r + 1) * in, row.data());
      const nn::Tensor& y = model.forward(ctx, row, false);
      std::copy(y.data(), y.data() + out, serial.begin() + static_cast<long>(r * out));
    }
    for (size_t m = 1; m <= rows; ++m) {
      nn::Tensor head({m, in});
      std::copy(x.data(), x.data() + m * in, head.data());
      const nn::Tensor& y = model.forward(ctx, head, false);
      ASSERT_TRUE(bitwise_equal(y.data(), serial.data(), m * out))
          << be->name() << " m=" << m;
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

  for (const nn::KernelBackend* vec : vector_backends()) {
    SCOPED_TRACE(vec->name());
    scalar.relu_forward(n, x.data(), a.data());
    vec->relu_forward(n, x.data(), b.data());
    EXPECT_EQ(a, b);
    scalar.relu_backward(n, x.data(), go.data(), a.data());
    vec->relu_backward(n, x.data(), go.data(), b.data());
    EXPECT_EQ(a, b);
    scalar.leaky_relu_forward(n, 0.01, x.data(), xca.data(), a.data());
    vec->leaky_relu_forward(n, 0.01, x.data(), xcb.data(), b.data());
    EXPECT_EQ(a, b);
    EXPECT_EQ(xca, xcb);
    scalar.leaky_relu_backward(n, 0.01, x.data(), go.data(), a.data());
    vec->leaky_relu_backward(n, 0.01, x.data(), go.data(), b.data());
    EXPECT_EQ(a, b);
    scalar.tanh_backward(n, x.data(), go.data(), a.data());
    vec->tanh_backward(n, x.data(), go.data(), b.data());
    EXPECT_EQ(a, b);

    a = go;
    b = go;
    scalar.add_bias_rows(17, 61, x.data(), a.data());  // 17*61 = 1037
    vec->add_bias_rows(17, 61, x.data(), b.data());
    EXPECT_EQ(a, b);
  }
}

TEST(BackendParity, OptimizerUpdatesBitwise) {
  SKIP_WITHOUT_AVX2();
  const nn::KernelBackend& scalar = nn::scalar_backend();
  const size_t n = 517;
  const auto g = random_vec(n, 41);

  for (const nn::KernelBackend* vec : vector_backends()) {
    SCOPED_TRACE(vec->name());
    auto ws = random_vec(n, 42), wv = ws;
    scalar.sgd_update(n, 1e-2, g.data(), ws.data());
    vec->sgd_update(n, 1e-2, g.data(), wv.data());
    EXPECT_EQ(ws, wv);

    auto vels = random_vec(n, 43), velv = vels;
    scalar.sgd_momentum_update(n, 1e-2, 0.9, g.data(), vels.data(), ws.data());
    vec->sgd_momentum_update(n, 1e-2, 0.9, g.data(), velv.data(), wv.data());
    EXPECT_EQ(ws, wv);
    EXPECT_EQ(vels, velv);

    auto ms = random_vec(n, 44, 0, 1), mv = ms;
    auto vs = random_vec(n, 45, 0, 1), vv = vs;
    for (int step = 1; step <= 3; ++step) {
      const double bc1 = 1.0 - std::pow(0.9, step);
      const double bc2 = 1.0 - std::pow(0.999, step);
      scalar.adam_update(n, 1e-3, 0.9, 0.999, bc1, bc2, 1e-8, g.data(), ms.data(),
                         vs.data(), ws.data());
      vec->adam_update(n, 1e-3, 0.9, 0.999, bc1, bc2, 1e-8, g.data(), mv.data(),
                       vv.data(), wv.data());
    }
    EXPECT_EQ(ws, wv);
    EXPECT_EQ(ms, mv);
    EXPECT_EQ(vs, vv);
  }
}

// ---------------------------------------------------------------------------
// FFT kernels: bitwise identical across backends. The AVX2 butterflies mirror
// the scalar complex-product order (re = ar*br - ai*bi, im = ar*bi + ai*br —
// addsub only commutes the final addition), so whole transforms match bit for
// bit, not merely to rounding.

TEST(BackendParity, FftButterflyPassesBitwise) {
  SKIP_WITHOUT_AVX2();
  const nn::KernelBackend& scalar = nn::scalar_backend();
  for (const nn::KernelBackend* vec : vector_backends()) {
    SCOPED_TRACE(vec->name());
    // The pass kernels only demand unit-stride interleaved data and a
    // twiddle table per span — any complex values expose order-of-operations
    // drift, so random "twiddles" are a stronger probe than actual roots of
    // unity.
    for (const size_t len : {size_t{2}, size_t{4}, size_t{8}, size_t{32}}) {
      const size_t n = 128;  // several spans per pass
      const auto tw = random_vec(len, 201 + len);  // len/2 complex entries
      auto a = random_vec(2 * n, 202 + len);
      auto b = a;
      scalar.fft_radix2_pass(n, len, tw.data(), a.data());
      vec->fft_radix2_pass(n, len, tw.data(), b.data());
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
      vec->fft_radix4_pass(n, len, twA.data(), twB.data(), twC.data(), b.data());
      EXPECT_EQ(a, b) << "radix-4 pass len=" << len;
    }
    const size_t n = 517;  // odd: exercises the cplx_mul vector tail
    const auto x = random_vec(2 * n, 221);
    const auto y = random_vec(2 * n, 222);
    std::vector<double> a(2 * n), b(2 * n);
    scalar.cplx_mul(n, x.data(), y.data(), a.data());
    vec->cplx_mul(n, x.data(), y.data(), b.data());
    EXPECT_EQ(a, b);
  }
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
    for (const nn::KernelBackend* be : vector_backends()) {
      const auto vec = run(be);
      const std::string what = std::string(be->name()) + " " + pic::shape_name(shape);
      EXPECT_TRUE(same_bits(std::get<0>(scalar), std::get<0>(vec))) << "x after 1 step, " << what;
      EXPECT_TRUE(same_bits(std::get<1>(scalar), std::get<1>(vec))) << "x, " << what;
      EXPECT_TRUE(same_bits(std::get<2>(scalar), std::get<2>(vec))) << "v, " << what;
      EXPECT_TRUE(same_bits(std::get<3>(scalar), std::get<3>(vec))) << "rho, " << what;
    }
  }
}

// The push and stagger kernels called directly on [lo, hi) ranges: every
// body/tail split of the 4- and 8-wide kernels (hi - lo = 8k + r for r =
// 0..7, even and odd lo), lanes that drift out of the box either side,
// x = L - ulp, and grids of 2, 64 and 1000 cells. x and v must match the
// scalar backend bit for bit, and particles outside the range stay as they
// were.
TEST(BackendParity, PicPushStaggerBitwiseAcrossRangesAndGrids) {
  const double L = 2.0534;
  const double dt = 0.2;
  const size_t n = 64;
  for (const long ncells : {2L, 64L, 1000L}) {
    const double inv_dx = 1.0 / (L / static_cast<double>(ncells));
    math::Rng rng(40 + static_cast<uint64_t>(ncells));
    std::vector<double> E(static_cast<size_t>(ncells));
    for (auto& e : E) e = rng.uniform(-0.05, 0.05);
    // Signed zeros on every node a stencil at x = 0 touches: the gather
    // there is +0.0 only with a +0.0 accumulator start, and a v of -0.0
    // plus that kick shows the sign.
    E[0] = E[1] = E.back() = -0.0;
    std::vector<double> x0(n), v0(n);
    for (size_t p = 0; p < n; ++p) {
      x0[p] = rng.uniform(0.0, L);
      v0[p] = rng.uniform(-0.3, 0.3);
    }
    // Lanes that leave through 0 and through L, and lanes on the box edges.
    for (const size_t p : {3, 17, 30, 41}) {
      x0[p] = 1e-3;
      v0[p] = -0.5;
    }
    for (const size_t p : {6, 22, 35, 50}) {
      x0[p] = L - 1e-3;
      v0[p] = 0.5;
    }
    for (const size_t p : {9, 26, 44, 61}) x0[p] = std::nextafter(L, 0.0);
    for (const size_t p : {12, 55}) {
      x0[p] = 0.0;
      v0[p] = -0.0;
    }

    for (const int shape : {0, 1, 2}) {
      const auto& ref = nn::scalar_backend();
      for (const size_t lo : {size_t{0}, size_t{3}, size_t{8}}) {
        for (size_t len = 0; lo + len <= n && len <= 40; ++len) {
          const size_t hi = lo + len;
          std::vector<double> xs = x0, vs = v0, vs_stagger = v0;
          ref.pic_leapfrog(shape)(E.data(), xs.data(), vs.data(), lo, hi, inv_dx, ncells, -dt,
                                  dt, L);
          ref.pic_stagger(shape)(E.data(), x0.data(), vs_stagger.data(), lo, hi, inv_dx, ncells,
                                 0.5 * dt);
          for (size_t p = 0; p < n; ++p) {
            if (p >= lo && p < hi) continue;
            ASSERT_TRUE(bitwise_equal(&xs[p], &x0[p], 1) && bitwise_equal(&vs[p], &v0[p], 1) &&
                        bitwise_equal(&vs_stagger[p], &v0[p], 1))
                << "particle " << p << " outside [" << lo << ", " << hi << ") changed";
          }
          for (const nn::KernelBackend* be : vector_backends()) {
            std::vector<double> xb = x0, vb = v0, vb_stagger = v0;
            be->pic_leapfrog(shape)(E.data(), xb.data(), vb.data(), lo, hi, inv_dx, ncells,
                                    -dt, dt, L);
            be->pic_stagger(shape)(E.data(), x0.data(), vb_stagger.data(), lo, hi, inv_dx,
                                   ncells, 0.5 * dt);
            const std::string what = std::string(be->name()) + " shape " +
                                     std::to_string(shape) + " ncells " +
                                     std::to_string(ncells) + " [" + std::to_string(lo) +
                                     ", " + std::to_string(hi) + ")";
            EXPECT_TRUE(bitwise_equal(xs.data(), xb.data(), n)) << "leapfrog x, " << what;
            EXPECT_TRUE(bitwise_equal(vs.data(), vb.data(), n)) << "leapfrog v, " << what;
            EXPECT_TRUE(bitwise_equal(vs_stagger.data(), vb_stagger.data(), n))
                << "stagger v, " << what;
          }
        }
      }
    }
  }
}

// A drift that lands exactly on L, alone among in-box lanes, at every lane
// of a 4- and an 8-wide group: only the vector in-box test (x < L) sends it
// to the wrap, which maps it to 0. qm_dt = 0 leaves v unkicked, so the
// drift is exactly v * dt.
TEST(BackendParity, PicPushWrapsDriftToExactlyLInEveryLane) {
  const double L = 2.0534;
  const double dt = 0.2;
  const double v_edge = 0.25;
  const double vdt = v_edge * dt;
  double x_to_L = L - vdt;
  while (x_to_L + vdt < L) x_to_L = std::nextafter(x_to_L, L);
  while (x_to_L + vdt > L) x_to_L = std::nextafter(x_to_L, 0.0);
  ASSERT_EQ(x_to_L + vdt, L);
  const std::vector<double> E(64, 0.01);
  const double inv_dx = 64.0 / L;
  const double zero = 0.0;
  for (size_t lane = 0; lane < 8; ++lane) {
    std::vector<double> x0(16, 1.0), v0(16, 0.1);
    x0[8 + lane] = x_to_L;
    v0[8 + lane] = v_edge;
    for (const nn::KernelBackend* be : available_backends()) {
      for (const int shape : {0, 1, 2}) {
        std::vector<double> x = x0, v = v0;
        be->pic_leapfrog(shape)(E.data(), x.data(), v.data(), 0, 16, inv_dx, 64, 0.0, dt, L);
        EXPECT_TRUE(bitwise_equal(&x[8 + lane], &zero, 1))
            << be->name() << " shape " << shape << " lane " << lane << ": x = " << x[8 + lane];
      }
    }
  }
}

// The paper's configuration (64 cells, 64k particles, spectral Poisson) at
// its loaded state and after 100 steps: one stagger and one push from each
// state give the scalar bits on every backend, for each shape.
TEST(BackendParity, PicPushStaggerBitwiseOnPaperStates) {
  pic::SimulationConfig cfg;
  cfg.nsteps = 100;
  std::vector<std::pair<std::string, std::pair<pic::Species, std::vector<double>>>> states;
  {
    nn::ScopedBackend scope(&nn::scalar_backend());
    pic::TraditionalPic sim(cfg);
    states.push_back({"loaded", {sim.electrons(), sim.efield()}});
    for (size_t step = 0; step < cfg.nsteps; ++step) sim.step();
    states.push_back({"evolved", {sim.electrons(), sim.efield()}});
  }
  const pic::Grid1D grid(cfg.ncells, cfg.length);
  for (const auto& [label, state] : states) {
    for (const auto shape : {pic::Shape::NGP, pic::Shape::CIC, pic::Shape::TSC}) {
      auto run = [&](const nn::KernelBackend* be) {
        nn::ScopedBackend scope(be);
        pic::Species staggered = state.first;
        pic::stagger_velocities_back(grid, shape, state.second, staggered, cfg.dt);
        pic::Species pushed = state.first;
        pic::leapfrog_step(grid, shape, state.second, pushed, cfg.dt);
        return std::make_tuple(staggered.v(), pushed.x(), pushed.v());
      };
      const auto ref = run(&nn::scalar_backend());
      for (const nn::KernelBackend* be : vector_backends()) {
        const auto got = run(be);
        const std::string what = label + " " + be->name() + " " + pic::shape_name(shape);
        EXPECT_TRUE(same_bits(std::get<0>(ref), std::get<0>(got))) << "stagger v, " << what;
        EXPECT_TRUE(same_bits(std::get<1>(ref), std::get<1>(got))) << "push x, " << what;
        EXPECT_TRUE(same_bits(std::get<2>(ref), std::get<2>(got))) << "push v, " << what;
      }
    }
  }
}

// A NaN or ±inf position, in a vector group or in the tail, makes the push
// and the stagger throw std::invalid_argument naming the particle, on every
// backend and shape, instead of gathering an undefined node.
TEST(BackendParity, PushAndStaggerRejectNonFinitePositions) {
  const pic::Grid1D grid(64, 2.0534);
  const std::vector<double> E(64, 0.01);
  const size_t n = 21;  // vector bodies [0, 16) and [0, 20): index 20 is a tail
  for (const nn::KernelBackend* be : available_backends()) {
    nn::ScopedBackend scope(be);
    for (const auto shape : {pic::Shape::NGP, pic::Shape::CIC, pic::Shape::TSC}) {
      for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
        for (const size_t index : {size_t{5}, size_t{20}}) {
          pic::Species species = pic::Species::electrons(n, grid.length());
          for (size_t p = 0; p < n; ++p) species.add(0.05 + 0.09 * static_cast<double>(p), 0.1);
          species.x()[index] = bad;
          const std::string what = std::string(be->name()) + " " + pic::shape_name(shape) +
                                   " x=" + std::to_string(bad) + " at " + std::to_string(index);
          const std::string needle = "particle " + std::to_string(index) + " ";
          for (const bool push : {true, false}) {
            try {
              if (push)
                pic::leapfrog_step(grid, shape, E, species, 0.2);
              else
                pic::stagger_velocities_back(grid, shape, E, species, 0.2);
              ADD_FAILURE() << (push ? "push" : "stagger") << " did not throw, " << what;
            } catch (const std::invalid_argument& e) {
              EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                  << e.what() << ", " << what;
            }
          }
        }
      }
    }
  }
  // At 4 workers the chunk that holds the particle runs on a pool thread,
  // and the pool hands its exception back to the caller.
  util::ThreadPool::global().resize(4);
  {
    util::ScopedMaxWorkers cap(4);
    for (const nn::KernelBackend* be : available_backends()) {
      nn::ScopedBackend scope(be);
      pic::Species species = parity_species(grid, 64000);
      species.x()[40003] = std::numeric_limits<double>::quiet_NaN();
      for (const bool push : {true, false}) {
        try {
          if (push)
            pic::leapfrog_step(grid, pic::Shape::CIC, E, species, 0.2);
          else
            pic::stagger_velocities_back(grid, pic::Shape::CIC, E, species, 0.2);
          ADD_FAILURE() << (push ? "push" : "stagger") << " did not throw, " << be->name();
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("particle 40003 "), std::string::npos)
              << e.what() << ", " << be->name();
        }
      }
    }
  }
  util::ThreadPool::global().resize(0);
}

// Species::velocity_moments: the same bits on every backend and worker
// count (it is one portable loop in a fixed order), and within 1e-13 of a
// long double sum, relative to the sum of the terms' magnitudes (for the
// kinetic energy that is the sum itself).
TEST(BackendParity, VelocityMomentsBitwiseAndAccurate) {
  const pic::Grid1D grid(64, 2.0534);
  std::vector<std::pair<std::string, pic::Species>> cases;
  math::Rng rng(71);
  for (const size_t n : {0, 1, 31, 32, 33, 64000}) {
    pic::Species s("random", -0.5, 0.5);
    for (size_t p = 0; p < n; ++p) s.add(0.0, rng.uniform(-0.3, 0.5));
    cases.push_back({"random n=" + std::to_string(n), std::move(s)});
  }
  cases.push_back({"64k two-stream", parity_species(grid, 64000)});
  util::ThreadPool::global().resize(4);
  for (const auto& [label, species] : cases) {
    long double ke = 0.0L, ke_abs = 0.0L, mom = 0.0L, mom_abs = 0.0L;
    for (const double v : species.v()) {
      const long double lv = v;
      ke += lv * lv;
      ke_abs += lv * lv;
      mom += lv;
      mom_abs += lv < 0 ? -lv : lv;
    }
    const long double m = species.mass();
    const pic::Species::VelocityMoments ref = species.velocity_moments();
    EXPECT_LE(std::abs(static_cast<long double>(ref.kinetic_energy) - 0.5L * m * ke),
              1e-13L * 0.5L * m * ke_abs)
        << label;
    EXPECT_LE(std::abs(static_cast<long double>(ref.momentum) - m * mom), 1e-13L * m * mom_abs)
        << label;
    for (const nn::KernelBackend* be : available_backends()) {
      for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
        util::ScopedMaxWorkers cap(workers);
        nn::ScopedBackend scope(be);
        const pic::Species::VelocityMoments got = species.velocity_moments();
        EXPECT_TRUE(bitwise_equal(&ref.kinetic_energy, &got.kinetic_energy, 1) &&
                    bitwise_equal(&ref.momentum, &got.momentum, 1))
            << label << " " << be->name() << " workers " << workers;
      }
    }
  }
  util::ThreadPool::global().resize(0);
}

// The moments' summation order is part of their contract: the same bits
// from every build of species.cpp, whatever its -march. Velocities are
// k * 2^-53 for 52-bit k, so generating them rounds nothing under any
// flags, while the sums round; a serial sum gives other bits than these
// (kinetic ...4f7 and momentum ...1c0 at n = 64000).
TEST(BackendParity, VelocityMomentsPinnedSumOrder) {
  const auto bits = [](double d) {
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(d));
    return u;
  };
  const std::pair<size_t, std::pair<uint64_t, uint64_t>> golden[] = {
      {33, {0x3fd4b88c27248bebull, 0x3fbbc8dfbff91c78ull}},
      {64000, {0x4084d5409f87e545ull, 0x3f98480b0c247820ull}}};
  for (const auto& [n, want] : golden) {
    pic::Species s("exact", -1.0, 1.0);
    for (size_t p = 0; p < n; ++p) {
      const uint64_t k = (static_cast<uint64_t>(p + 1) * 0x9E3779B97F4A7C15ull) >> 12;
      s.add(0.0, (static_cast<double>(k) - 0x1p51) * 0x1p-53);
    }
    const pic::Species::VelocityMoments m = s.velocity_moments();
    EXPECT_EQ(bits(m.kinetic_energy), want.first) << "n=" << n;
    EXPECT_EQ(bits(m.momentum), want.second) << "n=" << n;
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
