#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "math/fft.hpp"
#include "math/fft_plan.hpp"
#include "math/rng.hpp"

namespace {

using namespace dlpic::math;

TEST(Fft, ForwardInverseRoundTripPow2) {
  Rng rng(11);
  std::vector<cplx> data(128);
  for (auto& d : data) d = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto orig = data;
  const FftPlan& plan = get_fft_plan(data.size());
  plan.forward(data.data());
  plan.inverse(data.data());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-12);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-12);
  }
}

TEST(Fft, ForwardInverseRoundTripNonPow2) {
  Rng rng(12);
  std::vector<cplx> data(96);  // 96 = 2^5 * 3, exercises the DFT fallback
  for (auto& d : data) d = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto orig = data;
  const FftPlan& plan = get_fft_plan(data.size());
  plan.forward(data.data());
  plan.inverse(data.data());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-9);
  }
}

TEST(Fft, DeltaFunctionHasFlatSpectrum) {
  std::vector<cplx> data(64, cplx(0, 0));
  data[0] = cplx(1, 0);
  get_fft_plan(data.size()).forward(data.data());
  for (const auto& d : data) {
    EXPECT_NEAR(d.real(), 1.0, 1e-12);
    EXPECT_NEAR(d.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, MatchesDirectDftOnPow2) {
  // Cross-check radix-2 path against the direct definition.
  Rng rng(13);
  const size_t n = 32;
  std::vector<cplx> data(n);
  for (auto& d : data) d = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto fast = data;
  get_fft_plan(n).forward(fast.data());
  for (size_t k = 0; k < n; ++k) {
    cplx acc(0, 0);
    for (size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * j) / n;
      acc += data[j] * cplx(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(fast[k].real(), acc.real(), 1e-10);
    EXPECT_NEAR(fast[k].imag(), acc.imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(14);
  const size_t n = 256;
  std::vector<cplx> data(n);
  double time_energy = 0;
  for (auto& d : data) {
    d = cplx(rng.normal(), rng.normal());
    time_energy += std::norm(d);
  }
  get_fft_plan(data.size()).forward(data.data());
  double freq_energy = 0;
  for (const auto& d : data) freq_energy += std::norm(d);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8 * time_energy);
}

TEST(Fft, ModeAmplitudeRecoversCosine) {
  const size_t n = 64;
  const double amp = 0.37;
  const size_t mode = 5;
  const double phase = 1.1;
  std::vector<double> sig(n);
  for (size_t i = 0; i < n; ++i)
    sig[i] = amp * std::cos(2.0 * std::numbers::pi * static_cast<double>(mode * i) / n + phase);
  EXPECT_NEAR(mode_amplitude(sig, mode), amp, 1e-12);
  EXPECT_NEAR(mode_amplitude(sig, mode + 1), 0.0, 1e-12);
}

TEST(Fft, ModeAmplitudeDcIsNotDoubled) {
  std::vector<double> sig(32, 2.5);
  EXPECT_NEAR(mode_amplitude(sig, 0), 2.5, 1e-12);
}

TEST(Fft, ModeAmplitudeOutOfRangeThrows) {
  std::vector<double> sig(8, 0.0);
  EXPECT_THROW(mode_amplitude(sig, 8), std::invalid_argument);
}

class FftSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(FftSizeSweep, RoundTripAtSize) {
  const size_t n = GetParam();
  Rng rng(15 + n);
  std::vector<cplx> data(n);
  for (auto& d : data) d = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto orig = data;
  const FftPlan& plan = get_fft_plan(data.size());
  plan.forward(data.data());
  plan.inverse(data.data());
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(data[i] - orig[i]), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values(2, 4, 8, 16, 64, 100, 128, 255, 512));

}  // namespace
