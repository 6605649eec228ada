#include <gtest/gtest.h>

#include <vector>

#include "math/linalg.hpp"
#include "math/rng.hpp"

namespace {

using namespace dlpic::math;

std::vector<double> naive_gemm(bool ta, bool tb, size_t m, size_t n, size_t k,
                               const std::vector<double>& A, const std::vector<double>& B) {
  std::vector<double> C(m * n, 0.0);
  for (size_t i = 0; i < m; ++i)
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        const double av = ta ? A[p * m + i] : A[i * k + p];
        const double bv = tb ? B[j * k + p] : B[p * n + j];
        acc += av * bv;
      }
      C[i * n + j] = acc;
    }
  return C;
}

std::vector<double> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

struct GemmCase {
  size_t m, n, k;
  bool ta, tb;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaiveReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  auto A = random_vec(m * k, 100 + m);
  auto B = random_vec(k * n, 200 + n);
  std::vector<double> C;
  gemm(ta, tb, m, n, k, 1.0, A, B, 0.0, C);
  auto ref = naive_gemm(ta, tb, m, n, k, A, B);
  ASSERT_EQ(C.size(), ref.size());
  for (size_t i = 0; i < C.size(); ++i) EXPECT_NEAR(C[i], ref[i], 1e-10) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmCase{1, 1, 1, false, false}, GemmCase{3, 5, 7, false, false},
                      GemmCase{64, 64, 64, false, false}, GemmCase{65, 67, 129, false, false},
                      GemmCase{3, 5, 7, true, false}, GemmCase{3, 5, 7, false, true},
                      GemmCase{3, 5, 7, true, true}, GemmCase{130, 70, 300, true, false},
                      GemmCase{70, 130, 300, false, true},
                      GemmCase{128, 1, 256, false, false}));

TEST(Gemm, AlphaAndBetaScaling) {
  const size_t m = 8, n = 8, k = 8;
  auto A = random_vec(m * k, 1);
  auto B = random_vec(k * n, 2);
  std::vector<double> C0(m * n, 1.0);
  auto C = C0;
  gemm(false, false, m, n, k, 2.0, A, B, 0.5, C);
  auto ref = naive_gemm(false, false, m, n, k, A, B);
  for (size_t i = 0; i < C.size(); ++i) EXPECT_NEAR(C[i], 2.0 * ref[i] + 0.5, 1e-10);
}

TEST(Gemm, ZeroAlphaLeavesBetaScaledC) {
  const size_t m = 4, n = 4, k = 4;
  auto A = random_vec(m * k, 3);
  auto B = random_vec(k * n, 4);
  std::vector<double> C(m * n, 2.0);
  gemm(false, false, m, n, k, 0.0, A.data(), k, B.data(), n, 3.0, C.data(), n);
  for (double v : C) EXPECT_NEAR(v, 6.0, 1e-12);
}

TEST(Gemm, InconsistentSizesThrow) {
  std::vector<double> A(5), B(5), C;
  EXPECT_THROW(gemm(false, false, 4, 4, 4, 1.0, A, B, 0.0, C), std::invalid_argument);
}

TEST(Transpose, RoundTripIsIdentity) {
  const size_t m = 37, n = 53;
  auto A = random_vec(m * n, 7);
  std::vector<double> B(n * m), C(m * n);
  transpose(m, n, A.data(), B.data());
  transpose(n, m, B.data(), C.data());
  EXPECT_EQ(A, C);
  EXPECT_DOUBLE_EQ(B[0 * m + 0], A[0 * n + 0]);
  EXPECT_DOUBLE_EQ(B[1 * m + 0], A[0 * n + 1]);
}

}  // namespace
