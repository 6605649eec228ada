#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <thread>

#include "math/stats.hpp"
#include "pic/simulation.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlpic::pic;

SimulationConfig fast_config() {
  SimulationConfig cfg;  // paper geometry, fewer particles for test speed
  cfg.particles_per_cell = 200;
  cfg.seed = 7;
  return cfg;
}

TEST(Simulation, ConstructsWithPaperDefaults) {
  SimulationConfig cfg;
  EXPECT_EQ(cfg.ncells, 64u);
  EXPECT_NEAR(cfg.length, 2.0 * std::numbers::pi / 3.06, 1e-12);
  EXPECT_EQ(cfg.particles_per_cell, 1000u);
  EXPECT_DOUBLE_EQ(cfg.dt, 0.2);
  EXPECT_EQ(cfg.nsteps, 200u);
  EXPECT_EQ(cfg.total_particles(), 64000u);
}

TEST(Simulation, InitialStateIsNeutralAndQuietField) {
  auto cfg = fast_config();
  TraditionalPic sim(cfg);
  EXPECT_EQ(sim.electrons().size(), cfg.total_particles());
  EXPECT_NEAR(sim.background_density(), 1.0, 1e-12);
  // Total charge (electrons + background) integrates to ~0.
  double q = 0.0;
  for (double r : sim.rho()) q += r;
  EXPECT_NEAR(q * sim.grid().dx(), 0.0, 1e-9);
  // Initial field is noise-level: much smaller than the saturated ~0.1.
  double e_max = 0.0;
  for (double e : sim.efield()) e_max = std::max(e_max, std::abs(e));
  EXPECT_LT(e_max, 0.05);
  EXPECT_EQ(sim.history().size(), 1u);  // t=0 diagnostics recorded
}

TEST(Simulation, StepAdvancesTimeAndHistory) {
  auto cfg = fast_config();
  cfg.nsteps = 5;
  TraditionalPic sim(cfg);
  sim.run();
  EXPECT_EQ(sim.steps_taken(), 5u);
  EXPECT_NEAR(sim.time(), 1.0, 1e-12);
  EXPECT_EQ(sim.history().size(), 6u);  // initial + 5 steps
}

TEST(Simulation, ObserverSeesEveryStep) {
  auto cfg = fast_config();
  cfg.nsteps = 4;
  TraditionalPic sim(cfg);
  size_t calls = 0;
  sim.set_observer([&calls](const TraditionalPic&) { ++calls; });
  sim.run();
  EXPECT_EQ(calls, 4u);
}

// nthreads caps the parallel width of the stepping thread only: the
// observer runs at width 3, while a thread it starts still sees the
// process-wide setting.
TEST(Simulation, WorkerCapStaysOnTheSteppingThread) {
  namespace util = dlpic::util;
  util::ScopedMaxWorkers process_cap(1);
  const size_t caller = util::max_workers();
  auto cfg = fast_config();
  cfg.nthreads = 3;
  cfg.nsteps = 2;
  TraditionalPic sim(cfg);
  size_t stepping = 0, other = 0;
  sim.set_observer([&](const TraditionalPic&) {
    stepping = util::parallel_workers();
    std::thread([&other] { other = util::max_workers(); }).join();
  });
  sim.run();
  EXPECT_EQ(stepping, 3u);
  EXPECT_EQ(other, caller);
  EXPECT_EQ(util::parallel_workers(), 1u);  // the cap ends with the step
}

TEST(Simulation, TwoStreamGrowthRateMatchesLinearTheory) {
  // Paper Fig. 4 (bottom): E1 grows at the cold two-stream rate.
  // For k = 2*pi/L = 3.06, v0 = 0.2, omega_p = 1: gamma ~= 0.354.
  auto cfg = fast_config();
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.0;  // cold for the cleanest comparison with cold theory
  cfg.nsteps = 200;
  TraditionalPic sim(cfg);
  sim.run();

  const auto t = sim.history().times();
  const auto e1 = sim.history().e1_amplitude();
  auto fit = dlpic::math::fit_growth_rate(t, e1);
  ASSERT_TRUE(fit.valid);

  const double A = 0.5;                   // beam plasma frequency squared
  const double B = 3.06 * 0.2;            // k v0
  const double u_minus = (A + B * B) - std::sqrt(A * A + 4.0 * A * B * B);
  const double gamma_theory = std::sqrt(-u_minus);
  EXPECT_NEAR(gamma_theory, 0.3536, 2e-3);  // sanity on the formula itself
  EXPECT_NEAR(fit.gamma, gamma_theory, 0.15 * gamma_theory);
  EXPECT_GT(fit.r2, 0.85);
}

TEST(Simulation, MomentumIsConservedByTraditionalPic) {
  // Paper Fig. 5 (bottom): the explicit momentum-conserving scheme keeps
  // total momentum at its initial value to statistical accuracy.
  auto cfg = fast_config();
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.025;
  cfg.nsteps = 200;
  TraditionalPic sim(cfg);
  sim.run();
  // Momentum scale of one beam: m*N/2*v0 ~ L/2*0.2 ~ 0.2. Drift must be
  // orders of magnitude below that.
  EXPECT_LT(sim.history().max_momentum_drift(), 2e-4);
}

TEST(Simulation, EnergyVariationIsSmallPercent) {
  // Paper Fig. 5 (top): total energy varies by ~2% through saturation.
  auto cfg = fast_config();
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.025;
  cfg.nsteps = 200;
  TraditionalPic sim(cfg);
  sim.run();
  EXPECT_LT(sim.history().max_energy_variation(), 0.06);
  EXPECT_GT(sim.history().max_energy_variation(), 1e-5);  // not suspiciously exact
}

TEST(Simulation, StableBeamsDoNotDevelopMode1) {
  // v0 = 0.4 puts k*v0 above the two-stream instability threshold: E1 must
  // stay at noise level (paper Fig. 6 configuration).
  auto cfg = fast_config();
  cfg.beams.v0 = 0.4;
  cfg.beams.vth = 0.0;
  cfg.nsteps = 100;
  TraditionalPic sim(cfg);
  const double e1_initial = sim.history().entries().front().e1_amplitude;
  sim.run();
  double e1_max = 0.0;
  for (const auto& e : sim.history().entries()) e1_max = std::max(e1_max, e.e1_amplitude);
  // Allow noise growth from the cold-beam numerical instability but nothing
  // like the two-stream saturation at ~0.1 (factor ~100 above noise).
  EXPECT_LT(e1_max, 50.0 * (e1_initial + 1e-6));
}

TEST(Simulation, ColdBeamInstabilityHeatsBeams) {
  // Paper Fig. 6: with CIC + momentum-conserving explicit PIC, cold drifting
  // beams develop the numerical cold-beam instability: the beam velocity
  // spread grows from exactly zero.
  auto cfg = fast_config();
  cfg.beams.v0 = 0.4;
  cfg.beams.vth = 0.0;
  cfg.nsteps = 200;
  TraditionalPic sim(cfg);
  // The initial stagger kick already imprints the loading-noise field on
  // the beam (spread ~ E_noise*dt/2 ~ 4e-4); the instability then grows it
  // by an order of magnitude and non-conserves energy (Fig. 6 top-left).
  const double spread0 = beam_velocity_spread(sim.electrons(), true);
  sim.run();
  const double spread1 = beam_velocity_spread(sim.electrons(), true);
  EXPECT_LT(spread0, 1e-3);
  EXPECT_GT(spread1, 5.0 * spread0);
  EXPECT_GT(sim.history().max_energy_variation(), 1e-3);
}

TEST(Simulation, DeterministicGivenSeed) {
  auto cfg = fast_config();
  cfg.nsteps = 10;
  TraditionalPic a(cfg), b(cfg);
  a.run();
  b.run();
  EXPECT_EQ(a.electrons().x(), b.electrons().x());
  EXPECT_EQ(a.electrons().v(), b.electrons().v());
}

TEST(Simulation, SolverChoiceDoesNotChangePhysics) {
  // Growth rate must be solver-independent (spectral vs tridiag).
  auto cfg = fast_config();
  cfg.particles_per_cell = 100;
  cfg.nsteps = 150;
  cfg.solver = "spectral";
  TraditionalPic a(cfg);
  a.run();
  cfg.solver = "tridiag";
  TraditionalPic b(cfg);
  b.run();
  auto fa = dlpic::math::fit_growth_rate(a.history().times(), a.history().e1_amplitude());
  auto fb = dlpic::math::fit_growth_rate(b.history().times(), b.history().e1_amplitude());
  ASSERT_TRUE(fa.valid);
  ASSERT_TRUE(fb.valid);
  EXPECT_NEAR(fa.gamma, fb.gamma, 0.1 * std::abs(fa.gamma));
}

TEST(Simulation, InvalidDtThrows) {
  auto cfg = fast_config();
  cfg.dt = 0.0;
  EXPECT_THROW(TraditionalPic{cfg}, std::invalid_argument);
}

}  // namespace
