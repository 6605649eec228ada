/// \file test_fft_plan.cpp
/// FftPlan engine contracts: plan transforms match the direct-DFT reference
/// across power-of-two, odd, prime and mixed-radix sizes; rfft/irfft agree
/// with the complex path and round-trip to near-ULP; the fused radix-4
/// schedule is bitwise identical to its radix-2-only expansion; the plan
/// cache interns one immutable plan per size and is safe under concurrent
/// first use (run under TSan in CI); and first-use planning is covered by
/// the "fft_plan.create" fault-injection site.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "math/fft.hpp"
#include "math/fft_plan.hpp"
#include "math/rng.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace dlpic::math;

std::vector<cplx> random_signal(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> data(n);
  for (auto& d : data) d = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return data;
}

std::vector<double> random_real(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data(n);
  for (auto& d : data) d = rng.uniform(-1, 1);
  return data;
}

// pow2, odd, prime and mixed-radix sizes; 1000 = 2³·5³ and 251 (prime)
// exercise the Bluestein path, 96 = 2⁵·3 exercises an even size whose rfft
// half plan is itself non-pow2.
class FftPlanSizeSweep : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, FftPlanSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 9, 16, 31, 64, 96, 97,
                                           100, 128, 251, 255, 512, 1000, 1024));

TEST_P(FftPlanSizeSweep, ForwardMatchesDirectDft) {
  const size_t n = GetParam();
  const auto orig = random_signal(n, 21 + n);
  const auto ref = dft_reference(orig, /*inverse=*/false);
  auto data = orig;
  get_fft_plan(n).forward(data.data());
  // The direct DFT itself carries O(n) rounding; scale the tolerance with n.
  const double tol = 1e-12 * static_cast<double>(n);
  for (size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(data[k] - ref[k]), 0.0, tol) << "size " << n << " bin " << k;
}

TEST_P(FftPlanSizeSweep, InverseMatchesDirectDft) {
  const size_t n = GetParam();
  const auto orig = random_signal(n, 45 + n);
  const auto ref = dft_reference(orig, /*inverse=*/true);
  auto data = orig;
  get_fft_plan(n).inverse(data.data());
  const double tol = 1e-12 * static_cast<double>(n);
  for (size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(data[k] - ref[k]), 0.0, tol) << "size " << n << " bin " << k;
}

TEST_P(FftPlanSizeSweep, RfftMatchesComplexTransformBins) {
  const size_t n = GetParam();
  const auto sig = random_real(n, 77 + n);
  const FftPlan& plan = get_fft_plan(n);

  std::vector<cplx> full(n);
  for (size_t i = 0; i < n; ++i) full[i] = cplx(sig[i], 0.0);
  plan.forward(full.data());

  std::vector<cplx> packed(plan.spectrum_size());
  plan.rfft(sig.data(), packed.data());
  const double tol = 1e-13 * static_cast<double>(n);
  for (size_t k = 0; k < packed.size(); ++k)
    EXPECT_NEAR(std::abs(packed[k] - full[k]), 0.0, tol) << "size " << n << " bin " << k;
}

TEST_P(FftPlanSizeSweep, RfftIrfftRoundTripIsTight) {
  const size_t n = GetParam();
  const auto sig = random_real(n, 91 + n);
  const FftPlan& plan = get_fft_plan(n);
  std::vector<cplx> spec(plan.spectrum_size());
  std::vector<double> back(n);
  plan.rfft(sig.data(), spec.data());
  plan.irfft(spec.data(), back.data());
  // Near-ULP round trip: a handful of rounding steps per butterfly level on
  // unit-scale data.
  const double tol = 1e-14 * static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], sig[i], tol) << "size " << n;
}

TEST(FftPlan, Radix4ScheduleBitwiseEqualsRadix2Only) {
  // The fused radix-4 pass is defined as exactly two radix-2 stages on the
  // same twiddle tables — not merely close, the SAME bits.
  for (const size_t n : {size_t(8), size_t(16), size_t(64), size_t(256), size_t(1024)}) {
    const auto orig = random_signal(n, 131 + n);
    auto fused = orig;
    auto split = orig;
    const FftPlan& plan = get_fft_plan(n);
    plan.forward(fused.data());
    plan.forward_radix2_only(split.data());
    EXPECT_EQ(0, std::memcmp(fused.data(), split.data(), n * sizeof(cplx)))
        << "radix-4 fusion changed bits at n=" << n;
  }
}

TEST(FftPlan, DeltaAndConstantSignals) {
  const size_t n = 48;  // mixed radix, even: half-size rfft over Bluestein
  const FftPlan& plan = get_fft_plan(n);
  std::vector<double> delta(n, 0.0);
  delta[0] = 1.0;
  std::vector<cplx> spec(plan.spectrum_size());
  plan.rfft(delta.data(), spec.data());
  for (const auto& s : spec) {
    EXPECT_NEAR(s.real(), 1.0, 1e-12);
    EXPECT_NEAR(s.imag(), 0.0, 1e-12);
  }
  std::vector<double> constant(n, 2.5), back(n);
  plan.rfft(constant.data(), spec.data());
  EXPECT_NEAR(spec[0].real(), 2.5 * static_cast<double>(n), 1e-11);
  for (size_t k = 1; k < spec.size(); ++k) EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-11);
  plan.irfft(spec.data(), back.data());
  for (double v : back) EXPECT_NEAR(v, 2.5, 1e-12);
}

TEST(FftPlan, ZeroSizeThrows) { EXPECT_THROW(FftPlan plan(0), std::invalid_argument); }

TEST(FftPlanCache, InternsOnePlanPerSize) {
  const FftPlan& a = get_fft_plan(192);
  const FftPlan& b = get_fft_plan(192);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 192u);
  EXPECT_FALSE(a.pow2());
  EXPECT_TRUE(get_fft_plan(256).pow2());
  EXPECT_GE(fft_plan_cache_size(), 2u);
}

TEST(FftPlanCache, ConcurrentFirstUseIsSafe) {
  // 8 threads race to plan the same fresh sizes and transform with the
  // shared immutable plans. TSan (CI) checks the synchronization; here we
  // check everyone sees the same interned plan and correct results.
  const std::vector<size_t> sizes = {736, 737, 738, 739};  // not used elsewhere
  std::vector<std::thread> threads;
  std::vector<const FftPlan*> seen(8 * sizes.size(), nullptr);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t s = 0; s < sizes.size(); ++s) {
        const FftPlan& plan = get_fft_plan(sizes[s]);
        seen[t * sizes.size() + s] = &plan;
        auto sig = random_real(sizes[s], 7 * t + s);
        std::vector<cplx> spec(plan.spectrum_size());
        std::vector<double> back(sizes[s]);
        plan.rfft(sig.data(), spec.data());
        plan.irfft(spec.data(), back.data());
        for (size_t i = 0; i < sizes[s]; ++i)
          ASSERT_NEAR(back[i], sig[i], 1e-11) << "thread " << t << " n=" << sizes[s];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t s = 0; s < sizes.size(); ++s)
    for (size_t t = 1; t < 8; ++t)
      EXPECT_EQ(seen[s], seen[t * sizes.size() + s]) << "size " << sizes[s];
}

TEST(FftPlanCache, PlanningFaultLeavesCacheUnchangedAndRetrySucceeds) {
  dlpic::util::ScopedFaultInjection guard;
  auto& injector = dlpic::util::FaultInjector::instance();
  injector.set_probability(dlpic::util::FaultSite::kFftPlanCreate, 1.0);
  const size_t fresh = 7793;  // prime, never planned by other tests
  const size_t before = fft_plan_cache_size();
  EXPECT_THROW(get_fft_plan(fresh), dlpic::util::InjectedFault);
  EXPECT_EQ(fft_plan_cache_size(), before)
      << "a failed planning attempt must not leave a cache entry";
  injector.set_probability(dlpic::util::FaultSite::kFftPlanCreate, 0.0);
  const FftPlan& plan = get_fft_plan(fresh);  // replan succeeds
  EXPECT_EQ(plan.size(), fresh);
  // Cache hits never pass the fault point: re-arm and fetch again.
  injector.set_probability(dlpic::util::FaultSite::kFftPlanCreate, 1.0);
  EXPECT_NO_THROW(get_fft_plan(fresh));
}

TEST(ModeAmplitude, GoertzelMatchesSpectrumAtAnySize) {
  for (const size_t n : {size_t(64), size_t(96), size_t(97), size_t(255)}) {
    const auto sig = random_real(n, 300 + n);
    std::vector<cplx> spec(n);
    for (size_t i = 0; i < n; ++i) spec[i] = cplx(sig[i], 0.0);
    get_fft_plan(n).forward(spec.data());
    for (const size_t mode : {size_t(0), size_t(1), size_t(3), n / 2, n - 1}) {
      const bool two_sided = (mode != 0) && !(n % 2 == 0 && mode == n / 2);
      const double expected =
          (two_sided ? 2.0 : 1.0) * std::abs(spec[mode]) / static_cast<double>(n);
      EXPECT_NEAR(mode_amplitude(sig, mode), expected, 1e-11)
          << "n=" << n << " mode=" << mode;
    }
  }
}

}  // namespace
