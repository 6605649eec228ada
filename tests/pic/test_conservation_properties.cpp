#include <gtest/gtest.h>

#include <cmath>

#include "math/stats.hpp"
#include "pic/simulation.hpp"

namespace {

using namespace dlpic::pic;

// Property sweep: the explicit momentum-conserving scheme must conserve
// total momentum for EVERY shape order and EVERY Poisson solver, because
// scatter and gather use the same stencil (the discrete Newton's third
// law). This pins down the property the cold-beam instability trades
// against (energy).
struct ConservationCase {
  Shape shape;
  const char* solver;
};

class MomentumConservation : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(MomentumConservation, MomentumFlatForAllDiscretizations) {
  const auto& pc = GetParam();
  SimulationConfig cfg;
  cfg.particles_per_cell = 100;
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.01;
  cfg.nsteps = 80;
  cfg.shape = pc.shape;
  cfg.solver = pc.solver;
  cfg.seed = 99;
  TraditionalPic sim(cfg);
  sim.run();
  // Momentum scale: one beam carries m*N/2*v0 ~ 0.2; drift must be
  // negligible relative to that for every discretization combination.
  EXPECT_LT(sim.history().max_momentum_drift(), 1e-3)
      << shape_name(pc.shape) << "/" << pc.solver;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSolvers, MomentumConservation,
    ::testing::Values(ConservationCase{Shape::NGP, "spectral"},
                      ConservationCase{Shape::CIC, "spectral"},
                      ConservationCase{Shape::TSC, "spectral"},
                      ConservationCase{Shape::CIC, "tridiag"},
                      ConservationCase{Shape::TSC, "tridiag"}));

// The discrete self-force identity behind momentum conservation: with E
// from the central-difference gradient of a periodic potential, the total
// electric force on the plasma sum_i rho_i E_i dx vanishes.
TEST(SelfForce, TotalElectricForceIsZero) {
  SimulationConfig cfg;
  cfg.particles_per_cell = 100;
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.01;
  cfg.nsteps = 40;
  cfg.seed = 123;
  TraditionalPic sim(cfg);
  sim.run();
  const auto& rho = sim.rho();
  const auto& E = sim.efield();
  double force = 0.0;
  for (size_t i = 0; i < rho.size(); ++i) force += rho[i] * E[i] * sim.grid().dx();
  // Force scale: |rho| ~ O(0.1 fluctuation), |E| ~ 0.05 -> products ~1e-2;
  // the sum must cancel to round-off-dominated levels.
  EXPECT_LT(std::abs(force), 1e-10);
}

// Energy accounting: field + kinetic energy transfers during instability
// growth. Field energy must rise at the expense of kinetic energy.
TEST(EnergyTransfer, FieldGrowsAtKineticExpense) {
  SimulationConfig cfg;
  cfg.particles_per_cell = 200;
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.0;
  cfg.nsteps = 150;
  cfg.seed = 321;
  TraditionalPic sim(cfg);
  sim.run();
  const auto& h = sim.history().entries();
  const auto& first = h.front();
  // Find peak field energy.
  size_t peak = 0;
  for (size_t i = 0; i < h.size(); ++i)
    if (h[i].field_energy > h[peak].field_energy) peak = i;
  ASSERT_GT(peak, 0u);
  EXPECT_GT(h[peak].field_energy, 50.0 * first.field_energy);  // instability grew
  EXPECT_LT(h[peak].kinetic_energy, first.kinetic_energy);     // paid by particles
}

// dt-refinement property: halving dt must not change the fitted growth
// rate beyond discretization noise (the scheme is convergent).
TEST(Convergence, GrowthRateStableUnderDtRefinement) {
  SimulationConfig coarse;
  coarse.particles_per_cell = 100;
  coarse.beams.v0 = 0.2;
  coarse.beams.vth = 0.0;
  coarse.nsteps = 200;
  coarse.seed = 777;

  SimulationConfig fine = coarse;
  fine.dt = 0.1;
  fine.nsteps = 400;

  TraditionalPic a(coarse), b(fine);
  a.run();
  b.run();
  auto fa = dlpic::math::fit_growth_rate(a.history().times(), a.history().e1_amplitude());
  auto fb = dlpic::math::fit_growth_rate(b.history().times(), b.history().e1_amplitude());
  ASSERT_TRUE(fa.valid);
  ASSERT_TRUE(fb.valid);
  EXPECT_NEAR(fa.gamma, fb.gamma, 0.2 * std::abs(fa.gamma));
}

}  // namespace
