#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "math/rng.hpp"
#include "nn/backend.hpp"
#include "phase_space/binner.hpp"

namespace {

using namespace dlpic::phase_space;
using dlpic::pic::Species;

BinnerConfig small_config(BinningOrder order) {
  BinnerConfig c;
  c.nx = 8;
  c.nv = 8;
  c.length = 2.0;
  c.vmin = -0.5;
  c.vmax = 0.5;
  c.order = order;
  return c;
}

TEST(Binner, InvalidConfigThrows) {
  BinnerConfig c = small_config(BinningOrder::NGP);
  c.nx = 1;
  EXPECT_THROW(PhaseSpaceBinner{c}, std::invalid_argument);
  c = small_config(BinningOrder::NGP);
  c.vmax = c.vmin;
  EXPECT_THROW(PhaseSpaceBinner{c}, std::invalid_argument);
  c = small_config(BinningOrder::NGP);
  c.length = 0.0;
  EXPECT_THROW(PhaseSpaceBinner{c}, std::invalid_argument);
}

TEST(Binner, SingleParticleNgpLandsInCorrectBin) {
  PhaseSpaceBinner b(small_config(BinningOrder::NGP));
  // x = 0.3 -> bin floor(0.3/0.25)=1; v = 0.1 -> bin floor((0.1+0.5)/0.125)=4.
  auto h = b.bin({0.3}, {0.1});
  ASSERT_EQ(h.size(), 64u);
  EXPECT_DOUBLE_EQ(h[4 * 8 + 1], 1.0);
  EXPECT_DOUBLE_EQ(PhaseSpaceBinner::total_count(h), 1.0);
}

class BinnerOrders : public ::testing::TestWithParam<BinningOrder> {};

TEST_P(BinnerOrders, TotalCountEqualsParticleCount) {
  PhaseSpaceBinner b(small_config(GetParam()));
  dlpic::math::Rng rng(61);
  std::vector<double> x, v;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(rng.uniform(0.0, 2.0));
    v.push_back(rng.uniform(-0.49, 0.49));
  }
  auto h = b.bin(x, v);
  EXPECT_NEAR(PhaseSpaceBinner::total_count(h), 5000.0, 1e-8);
}

TEST_P(BinnerOrders, PeriodicWrapInX) {
  PhaseSpaceBinner b(small_config(GetParam()));
  // x outside the box must wrap, not clamp (fmod introduces one ulp of
  // rounding, so compare elementwise with a tolerance).
  auto h1 = b.bin({0.3}, {0.0});
  auto h2 = b.bin({0.3 + 2.0}, {0.0});
  auto h3 = b.bin({0.3 - 2.0}, {0.0});
  ASSERT_EQ(h1.size(), h2.size());
  for (size_t i = 0; i < h1.size(); ++i) {
    EXPECT_NEAR(h1[i], h2[i], 1e-9) << i;
    EXPECT_NEAR(h1[i], h3[i], 1e-9) << i;
  }
}

TEST_P(BinnerOrders, VelocityClampCounts) {
  PhaseSpaceBinner b(small_config(GetParam()));
  auto h = b.bin({0.5, 0.5, 0.5}, {0.0, 3.0, -3.0});
  EXPECT_EQ(b.clamped_particles(), 2u);
  EXPECT_NEAR(PhaseSpaceBinner::total_count(h), 3.0, 1e-12);
}

// bin() skips fmod for positions already in [0, L); every position must
// still bin bitwise as if wrapped by the full fmod formula first.
TEST_P(BinnerOrders, WrapMatchesFmodFormulaBitwise) {
  const BinnerConfig config = small_config(GetParam());
  PhaseSpaceBinner b(config);
  const double L = config.length;
  auto fmod_wrap = [L](double x) {
    double y = std::fmod(x, L);
    if (y < 0.0) y += L;
    if (y >= L) y -= L;
    return y;
  };
  const std::vector<double> xs{-L / 3.0, -0.0, -1e-18, 0.0, std::nextafter(L, 0.0),
                               L,        2.5 * L, 1e6 * L};
  std::vector<double> vs, wrapped;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double v = -0.4 + 0.1 * static_cast<double>(i);
    vs.push_back(v);
    wrapped.push_back(fmod_wrap(xs[i]));
    EXPECT_EQ(b.bin({xs[i]}, {v}), b.bin({wrapped.back()}, {v})) << "x=" << xs[i];
  }
  EXPECT_EQ(b.bin(xs, vs), b.bin(wrapped, vs));
}

// A particle with a NaN v, or an x that is not finite after the wrap,
// throws std::invalid_argument naming its index, on every backend; ±inf in
// v clamps like any other out-of-range v. The bad value sits in each lane
// of the first group of four and in both tail particles.
TEST_P(BinnerOrders, NonFiniteParticleRuleOnEveryBackend) {
  PhaseSpaceBinner b(small_config(GetParam()));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<const dlpic::nn::KernelBackend*> backends{&dlpic::nn::scalar_backend()};
  if (const auto* be = dlpic::nn::avx2_backend()) backends.push_back(be);
  if (const auto* be = dlpic::nn::avx512_backend()) backends.push_back(be);
  for (const auto* be : backends) {
    dlpic::nn::ScopedBackend scope(be);
    for (size_t lane = 0; lane < 6; ++lane) {
      for (const double bad : {nan, inf, -inf}) {
        const std::string where = std::string(be->name()) + " lane " + std::to_string(lane) +
                                  " value " + std::to_string(bad);
        std::vector<double> x{0.3, 0.9, 1.4, 1.9, 0.1, 1.2};
        std::vector<double> v{0.1, -0.2, 0.3, -0.4, 0.05, -0.05};
        x[lane] = bad;
        try {
          (void)b.bin(x, v);
          ADD_FAILURE() << "x: no throw, " << where;
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("particle " + std::to_string(lane) + " "),
                    std::string::npos)
              << e.what() << ", " << where;
        }
        x[lane] = 0.5;
        v[lane] = bad;
        if (std::isnan(bad)) {
          EXPECT_THROW((void)b.bin(x, v), std::invalid_argument) << "v, " << where;
        } else {
          const auto h = b.bin(x, v);
          EXPECT_EQ(b.clamped_particles(), 1u) << where;
          EXPECT_NEAR(PhaseSpaceBinner::total_count(h), 6.0, 1e-12) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BinnerOrders,
                         ::testing::Values(BinningOrder::NGP, BinningOrder::CIC));

TEST(Binner, CicSplitsWeightAcrossBins) {
  PhaseSpaceBinner b(small_config(BinningOrder::CIC));
  // Particle exactly on a bin-center: all weight in one bin. x bin centers
  // at (i+0.5)*0.25; v bin centers at -0.5+(j+0.5)*0.125.
  auto h = b.bin({0.375}, {-0.0625});
  double w_max = 0.0;
  for (double w : h) w_max = std::max(w_max, w);
  EXPECT_NEAR(w_max, 1.0, 1e-12);

  // Particle halfway between two x bin centers: 0.5/0.5 split.
  h = b.bin({0.25}, {-0.0625});
  std::vector<double> nonzero;
  for (double w : h)
    if (w > 1e-15) nonzero.push_back(w);
  ASSERT_EQ(nonzero.size(), 2u);
  EXPECT_NEAR(nonzero[0], 0.5, 1e-12);
  EXPECT_NEAR(nonzero[1], 0.5, 1e-12);
}

TEST(Binner, MismatchedArraysThrow) {
  PhaseSpaceBinner b(small_config(BinningOrder::NGP));
  EXPECT_THROW(b.bin({0.1, 0.2}, {0.0}), std::invalid_argument);
}

TEST(Binner, BinsSpeciesDirectly) {
  PhaseSpaceBinner b(small_config(BinningOrder::NGP));
  Species s("e", -1.0, 1.0);
  s.add(0.3, 0.1);
  s.add(1.9, -0.3);
  auto h = b.bin(s);
  EXPECT_NEAR(PhaseSpaceBinner::total_count(h), 2.0, 1e-12);
}

TEST(Binner, TwoStreamHistogramHasTwoBands) {
  // Two cold beams -> occupancy concentrated in exactly two velocity rows.
  BinnerConfig c = small_config(BinningOrder::NGP);
  c.nv = 16;
  PhaseSpaceBinner b(c);
  dlpic::math::Rng rng(62);
  std::vector<double> x, v;
  for (int i = 0; i < 2000; ++i) {
    x.push_back(rng.uniform(0.0, 2.0));
    v.push_back(i % 2 == 0 ? 0.2 : -0.2);
  }
  auto h = b.bin(x, v);
  size_t occupied_rows = 0;
  for (size_t r = 0; r < 16; ++r) {
    double row_sum = 0.0;
    for (size_t cidx = 0; cidx < 8; ++cidx) row_sum += h[r * 8 + cidx];
    if (row_sum > 0) ++occupied_rows;
  }
  EXPECT_EQ(occupied_rows, 2u);
}

}  // namespace
