#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "math/rng.hpp"
#include "pic/deposit.hpp"
#include "pic/gather.hpp"
#include "pic/loader.hpp"
#include "pic/mover.hpp"
#include "pic/sorter.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dlpic::pic;

// Parallel correctness of the hot-path kernels: for every shape order and
// worker count, the threaded per-worker-buffer deposit and the parallel
// fused leapfrog must agree with the single-worker path to round-off
// (reduction reordering only), and deposition must conserve total charge
// exactly through the threaded reduction.
//
// The worker cap controls the partition width, so these tests exercise the
// multi-buffer reduction paths even on single-core machines.

constexpr double kBoxLength = 2.0534;  // 2*pi/3.06
constexpr size_t kParticles = 64 * 1000;

/// Restores the process-default worker cap when a test exits.
class WorkerCapRestore {
 public:
  WorkerCapRestore() : previous_(dlpic::util::max_workers()) {}
  ~WorkerCapRestore() { dlpic::util::set_max_workers(previous_); }

 private:
  size_t previous_;
};

Species make_species(const Grid1D& grid) {
  dlpic::math::Rng rng(2024);
  TwoStreamParams p;
  p.v0 = 0.2;
  p.vth = 0.01;
  return load_two_stream(grid, kParticles, p, rng);
}

class ParallelDeterminism : public ::testing::TestWithParam<Shape> {};

TEST_P(ParallelDeterminism, DepositMatchesSerialAcrossWorkerCounts) {
  WorkerCapRestore restore;
  const Shape shape = GetParam();
  Grid1D grid(64, kBoxLength);
  auto species = make_species(grid);

  dlpic::util::set_max_workers(1);
  auto rho_serial = grid.make_field();
  deposit_charge(grid, shape, species, rho_serial);

  for (size_t workers : {2u, 8u}) {
    dlpic::util::set_max_workers(workers);
    auto rho_par = grid.make_field();
    deposit_charge(grid, shape, species, rho_par);
    for (size_t i = 0; i < rho_par.size(); ++i)
      EXPECT_NEAR(rho_par[i], rho_serial[i], 1e-12)
          << shape_name(shape) << " workers=" << workers << " node " << i;
  }
}

TEST_P(ParallelDeterminism, TotalChargeConservedAfterThreadedReduction) {
  WorkerCapRestore restore;
  const Shape shape = GetParam();
  Grid1D grid(64, kBoxLength);
  auto species = make_species(grid);
  const double expected = species.charge() * static_cast<double>(species.size());

  for (size_t workers : {1u, 2u, 8u}) {
    dlpic::util::set_max_workers(workers);
    auto rho = grid.make_field();
    deposit_charge(grid, shape, species, rho);
    EXPECT_NEAR(total_charge(grid, rho), expected, 1e-10)
        << shape_name(shape) << " workers=" << workers;
  }
}

TEST_P(ParallelDeterminism, LeapfrogMatchesSerialAcrossWorkerCounts) {
  WorkerCapRestore restore;
  const Shape shape = GetParam();
  Grid1D grid(64, kBoxLength);
  const auto initial = make_species(grid);

  // Oscillating field so the gather result actually depends on the stencil.
  std::vector<double> E(grid.ncells());
  for (size_t i = 0; i < E.size(); ++i)
    E[i] = 0.05 * std::sin(grid.mode_wavenumber(1) * grid.node_position(i));

  dlpic::util::set_max_workers(1);
  Species serial = initial;
  for (int s = 0; s < 5; ++s) leapfrog_step(grid, shape, E, serial, 0.2);
  stagger_velocities_back(grid, shape, E, serial, 0.2);

  for (size_t workers : {2u, 8u}) {
    dlpic::util::set_max_workers(workers);
    Species par = initial;
    for (int s = 0; s < 5; ++s) leapfrog_step(grid, shape, E, par, 0.2);
    stagger_velocities_back(grid, shape, E, par, 0.2);
    for (size_t p = 0; p < par.size(); p += 997) {  // sampled, arrays are 64k long
      EXPECT_NEAR(par.x()[p], serial.x()[p], 1e-12)
          << shape_name(shape) << " workers=" << workers << " particle " << p;
      EXPECT_NEAR(par.v()[p], serial.v()[p], 1e-12)
          << shape_name(shape) << " workers=" << workers << " particle " << p;
    }
  }
}

TEST_P(ParallelDeterminism, GatherIsExactlyReproducibleAcrossWorkerCounts) {
  WorkerCapRestore restore;
  const Shape shape = GetParam();
  Grid1D grid(64, kBoxLength);
  auto species = make_species(grid);
  std::vector<double> E(grid.ncells());
  for (size_t i = 0; i < E.size(); ++i)
    E[i] = 0.1 * std::cos(grid.mode_wavenumber(2) * grid.node_position(i));

  dlpic::util::set_max_workers(1);
  std::vector<double> Ep_serial;
  gather_to_particles(grid, shape, E, species, Ep_serial);

  for (size_t workers : {2u, 8u}) {
    dlpic::util::set_max_workers(workers);
    std::vector<double> Ep;
    gather_to_particles(grid, shape, E, species, Ep);
    ASSERT_EQ(Ep.size(), Ep_serial.size());
    // Gather writes disjoint outputs with no reduction: bitwise identical.
    for (size_t p = 0; p < Ep.size(); p += 997)
      EXPECT_DOUBLE_EQ(Ep[p], Ep_serial[p])
          << shape_name(shape) << " workers=" << workers << " particle " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, ParallelDeterminism,
                         ::testing::Values(Shape::NGP, Shape::CIC, Shape::TSC));

TEST(SortByCell, PreservesParticlesAndPhysics) {
  WorkerCapRestore restore;
  Grid1D grid(64, kBoxLength);
  auto species = make_species(grid);

  auto rho_before = grid.make_field();
  deposit_charge(grid, Shape::CIC, species, rho_before);
  const double ke_before = species.velocity_moments().kinetic_energy;

  sort_by_cell(grid, species);

  // Sorted by cell index, same multiset of particles.
  const double inv_dx = 1.0 / grid.dx();
  for (size_t p = 1; p < species.size(); ++p)
    EXPECT_LE(static_cast<size_t>(species.x()[p - 1] * inv_dx),
              static_cast<size_t>(species.x()[p] * inv_dx));
  EXPECT_NEAR(species.velocity_moments().kinetic_energy, ke_before, 1e-9);

  auto rho_after = grid.make_field();
  deposit_charge(grid, Shape::CIC, species, rho_after);
  for (size_t i = 0; i < rho_after.size(); ++i)
    EXPECT_NEAR(rho_after[i], rho_before[i], 1e-12) << "node " << i;
}

}  // namespace
