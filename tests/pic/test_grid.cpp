#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "pic/grid.hpp"

namespace {

using dlpic::pic::Grid1D;

TEST(Grid, BasicGeometry) {
  Grid1D g(64, 2.0 * std::numbers::pi / 3.06);
  EXPECT_EQ(g.ncells(), 64u);
  EXPECT_NEAR(g.dx(), g.length() / 64.0, 1e-15);
  EXPECT_DOUBLE_EQ(g.node_position(0), 0.0);
  EXPECT_NEAR(g.node_position(63), 63.0 * g.dx(), 1e-15);
}

TEST(Grid, InvalidArgumentsThrow) {
  EXPECT_THROW(Grid1D(1, 1.0), std::invalid_argument);
  EXPECT_THROW(Grid1D(8, 0.0), std::invalid_argument);
  EXPECT_THROW(Grid1D(8, -1.0), std::invalid_argument);
}

TEST(Grid, WrapNodeHandlesNegativeAndOverflow) {
  Grid1D g(8, 1.0);
  EXPECT_EQ(g.wrap_node(-1), 7u);
  EXPECT_EQ(g.wrap_node(8), 0u);
  EXPECT_EQ(g.wrap_node(17), 1u);
  EXPECT_EQ(g.wrap_node(-9), 7u);
  EXPECT_EQ(g.wrap_node(3), 3u);
}

TEST(Grid, WrapPositionIntoBox) {
  Grid1D g(8, 2.0);
  EXPECT_NEAR(g.wrap_position(2.5), 0.5, 1e-14);
  EXPECT_NEAR(g.wrap_position(-0.5), 1.5, 1e-14);
  EXPECT_NEAR(g.wrap_position(0.0), 0.0, 1e-14);
  EXPECT_NEAR(g.wrap_position(4.25), 0.25, 1e-14);
  const double w = g.wrap_position(2.0);
  EXPECT_GE(w, 0.0);
  EXPECT_LT(w, 2.0);
}

TEST(Grid, WrapPositionNeverReturnsLength) {
  Grid1D g(8, 1.0);
  // A value infinitesimally below zero must not wrap to exactly length.
  const double w = g.wrap_position(-1e-18);
  EXPECT_GE(w, 0.0);
  EXPECT_LT(w, 1.0);
}

// wrap_periodic skips fmod for positions already in [0, L); on every edge
// case it must still return the same bits as the plain fmod formula.
TEST(Grid, WrapPeriodicBitwiseEqualsFmodFormula) {
  auto fmod_wrap = [](double x, double length) {
    double y = std::fmod(x, length);
    if (y < 0.0) y += length;
    if (y >= length) y -= length;
    return y;
  };
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (const double L : {1.0, 2.0534}) {
    const std::vector<double> inputs = {0.0,
                                        -0.0,
                                        std::nextafter(L, 0.0),
                                        L,
                                        -1e-18,  // fmod + L rounds to L
                                        -L,
                                        2.0 * L + 0.25,
                                        1e300,
                                        inf,
                                        -inf,
                                        std::numeric_limits<double>::quiet_NaN()};
    for (const double x : inputs) {
      const double want = fmod_wrap(x, L);
      const double got = dlpic::pic::wrap_periodic(x, L);
      EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << "L=" << L << " x=" << x << ": " << got << " vs " << want;
    }
    EXPECT_EQ(dlpic::pic::wrap_periodic(-1e-18, L), 0.0);
    EXPECT_EQ(dlpic::pic::wrap_periodic(L, L), 0.0);
  }
}

TEST(Grid, ModeWavenumber) {
  const double L = 2.0 * std::numbers::pi / 3.06;
  Grid1D g(64, L);
  EXPECT_NEAR(g.mode_wavenumber(1), 3.06, 1e-12);
  EXPECT_NEAR(g.mode_wavenumber(2), 6.12, 1e-12);
  EXPECT_DOUBLE_EQ(g.mode_wavenumber(0), 0.0);
}

TEST(Grid, MakeFieldZeroInitialized) {
  Grid1D g(16, 1.0);
  auto f = g.make_field();
  ASSERT_EQ(f.size(), 16u);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
