#include <gtest/gtest.h>

#include "pic/species.hpp"

namespace {

using dlpic::pic::Species;

TEST(Species, ElectronNormalization) {
  // q = -L/N, m = L/N so q/m = -1 and mean density * q = -1 (omega_p = 1).
  const double L = 2.05;
  const size_t N = 1000;
  Species s = Species::electrons(N, L);
  EXPECT_DOUBLE_EQ(s.charge(), -L / N);
  EXPECT_DOUBLE_EQ(s.mass(), L / N);
  EXPECT_DOUBLE_EQ(s.charge_over_mass(), -1.0);
  EXPECT_EQ(s.size(), 0u);  // electrons() only reserves
}

TEST(Species, AddAndAccess) {
  Species s("test", -1.0, 1.0);
  s.add(0.5, 1.5);
  s.add(1.0, -0.5);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.x()[0], 0.5);
  EXPECT_DOUBLE_EQ(s.v()[1], -0.5);
}

TEST(Species, KineticEnergyAndMomentum) {
  Species s("test", -1.0, 2.0);
  s.add(0.0, 3.0);
  s.add(0.0, -1.0);
  // KE = 0.5*2*(9+1) = 10; P = 2*(3-1) = 4.
  const auto m = s.velocity_moments();
  EXPECT_DOUBLE_EQ(m.kinetic_energy, 10.0);
  EXPECT_DOUBLE_EQ(m.momentum, 4.0);
}

TEST(Species, InvalidConstructionThrows) {
  EXPECT_THROW(Species("bad", 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Species("bad", 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Species::electrons(0, 1.0), std::invalid_argument);
}

TEST(Species, EmptySpeciesHasZeroEnergyMomentum) {
  Species s("empty", -1.0, 1.0);
  const auto m = s.velocity_moments();
  EXPECT_DOUBLE_EQ(m.kinetic_energy, 0.0);
  EXPECT_DOUBLE_EQ(m.momentum, 0.0);
}

}  // namespace
