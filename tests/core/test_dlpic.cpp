#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/dl_field_solver.hpp"
#include "core/dlpic.hpp"
#include "core/theory.hpp"
#include "data/generator.hpp"
#include "math/stats.hpp"
#include "nn/dense.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dlpic;
using core::DlFieldSolver;
using core::DlPicSimulation;

// A solver whose network returns all zeros: the DL-PIC cycle degenerates to
// free streaming, isolating the mover/binning mechanics from model quality.
std::shared_ptr<DlFieldSolver> zero_solver(const phase_space::BinnerConfig& bc,
                                           size_t ncells) {
  nn::Sequential model;
  auto dense = std::make_unique<nn::Dense>(bc.nx * bc.nv, ncells);
  dense->weight().fill(0.0);
  dense->bias().fill(0.0);
  model.add(std::move(dense));
  return std::make_shared<DlFieldSolver>(std::move(model),
                                         data::MinMaxNormalizer(0.0, 1.0), bc);
}

pic::SimulationConfig small_sim() {
  pic::SimulationConfig cfg;
  cfg.particles_per_cell = 100;
  cfg.seed = 11;
  return cfg;
}

TEST(DlPic, ZeroFieldMeansFreeStreaming) {
  auto cfg = small_sim();
  phase_space::BinnerConfig bc;
  bc.nx = 16;
  bc.nv = 16;
  DlPicSimulation sim(cfg, zero_solver(bc, cfg.ncells));
  const double p0 = sim.electrons().velocity_moments().momentum;
  const double ke0 = sim.electrons().velocity_moments().kinetic_energy;
  sim.run(20);
  EXPECT_EQ(sim.steps_taken(), 20u);
  EXPECT_NEAR(sim.time(), 4.0, 1e-12);
  // No field -> no kick: momentum and kinetic energy exactly conserved.
  EXPECT_DOUBLE_EQ(sim.electrons().velocity_moments().momentum, p0);
  EXPECT_DOUBLE_EQ(sim.electrons().velocity_moments().kinetic_energy, ke0);
  for (double e : sim.efield()) EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(DlPic, HistoryAndObserverMechanics) {
  auto cfg = small_sim();
  phase_space::BinnerConfig bc;
  bc.nx = 16;
  bc.nv = 16;
  DlPicSimulation sim(cfg, zero_solver(bc, cfg.ncells));
  size_t calls = 0;
  sim.set_observer([&calls](const DlPicSimulation&) { ++calls; });
  sim.run(5);
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(sim.history().size(), 6u);  // initial + 5
}

TEST(DlPic, RejectsBadConstruction) {
  auto cfg = small_sim();
  phase_space::BinnerConfig bc;
  bc.nx = 16;
  bc.nv = 16;
  EXPECT_THROW(DlPicSimulation(cfg, nullptr), std::invalid_argument);

  // Binner box mismatch.
  auto bad_bc = bc;
  bad_bc.length = 1.0;
  EXPECT_THROW(DlPicSimulation(cfg, zero_solver(bad_bc, cfg.ncells)),
               std::invalid_argument);

  // Model output != grid cells.
  EXPECT_THROW(DlPicSimulation(cfg, zero_solver(bc, cfg.ncells + 1)),
               std::invalid_argument);

  auto bad_cfg = cfg;
  bad_cfg.dt = -0.1;
  EXPECT_THROW(DlPicSimulation(bad_cfg, zero_solver(bc, cfg.ncells)),
               std::invalid_argument);
}

// nthreads caps the parallel width of the stepping thread only: the
// observer runs at width 3, while a thread it starts still sees the
// process-wide setting.
TEST(DlPic, WorkerCapStaysOnTheSteppingThread) {
  util::ScopedMaxWorkers process_cap(1);
  const size_t caller = util::max_workers();
  auto cfg = small_sim();
  cfg.nthreads = 3;
  phase_space::BinnerConfig bc;
  bc.nx = 16;
  bc.nv = 16;
  DlPicSimulation sim(cfg, zero_solver(bc, cfg.ncells));
  size_t stepping = 0, other = 0;
  sim.set_observer([&](const DlPicSimulation&) {
    stepping = util::parallel_workers();
    std::thread([&other] { other = util::max_workers(); }).join();
  });
  sim.run(2);
  EXPECT_EQ(stepping, 3u);
  EXPECT_EQ(other, caller);
  EXPECT_EQ(util::parallel_workers(), 1u);  // the cap ends with the step
}

// The particles, field and history of a DL-PIC run with an untrained,
// seeded MLP, concatenated. The network gives a nonzero field from a sparse
// phase-space histogram; its 256-wide hidden layers split into four column
// tiles, which parallel_for spreads over the workers.
struct DlPicState {
  std::vector<double> values;
  double max_field = 0.0;
};

DlPicState run_untrained_mlp(size_t workers, size_t steps = 10, size_t sort_interval = 25) {
  util::ScopedMaxWorkers cap(workers);
  auto cfg = small_sim();
  cfg.sort_interval = sort_interval;
  phase_space::BinnerConfig bc;
  bc.nx = 32;
  bc.nv = 32;
  nn::MlpSpec spec;
  spec.input_dim = bc.nx * bc.nv;
  spec.output_dim = cfg.ncells;
  spec.hidden = 256;
  DlPicSimulation sim(cfg, std::make_shared<DlFieldSolver>(
                               nn::build_mlp(spec), data::MinMaxNormalizer(0.0, 100.0), bc));
  sim.run(steps);
  DlPicState state;
  state.values = sim.electrons().x();
  state.values.insert(state.values.end(), sim.electrons().v().begin(),
                      sim.electrons().v().end());
  state.values.insert(state.values.end(), sim.efield().begin(), sim.efield().end());
  for (const pic::StepDiagnostics& d : sim.history().entries()) {
    state.values.insert(state.values.end(), {d.time, d.field_energy, d.kinetic_energy,
                                             d.total_energy, d.momentum, d.e1_amplitude,
                                             d.e_max});
    state.max_field = std::max(state.max_field, d.e_max);
  }
  return state;
}

TEST(DlPic, BitwiseInvariantAcrossWorkerCounts) {
  util::ThreadPool::global().resize(4);
  const DlPicState serial = run_untrained_mlp(1);
  ASSERT_GT(serial.max_field, 0.0);
  for (const size_t workers : {2, 4}) {
    const DlPicState parallel = run_untrained_mlp(workers);
    ASSERT_EQ(parallel.values.size(), serial.values.size());
    EXPECT_EQ(std::memcmp(parallel.values.data(), serial.values.data(),
                          serial.values.size() * sizeof(double)),
              0)
        << "workers=" << workers;
  }
  util::ThreadPool::global().resize(0);
}

// DL-PIC keeps the particles in load order whatever sort_interval says: a
// run that would sort at step 25 matches one that never sorts, bitwise.
TEST(DlPic, KeepsParticleOrder) {
  const DlPicState sorted = run_untrained_mlp(1, 30, 25);
  const DlPicState unsorted = run_untrained_mlp(1, 30, 0);
  ASSERT_GT(unsorted.max_field, 0.0);
  ASSERT_EQ(sorted.values.size(), unsorted.values.size());
  EXPECT_EQ(std::memcmp(sorted.values.data(), unsorted.values.data(),
                        unsorted.values.size() * sizeof(double)),
            0);
}

// Shared trained solver for the physics tests below (training is the
// expensive part; do it once for the fixture).
class TrainedDlPic : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig gen;
    gen.base.particles_per_cell = 100;
    gen.binner.nx = 16;
    gen.binner.nv = 16;
    gen.v0_values = {0.15, 0.2, 0.25};
    gen.vth_values = {0.0, 0.01};
    gen.runs_per_combination = 1;
    gen.steps_per_run = 80;
    auto dataset = data::DatasetGenerator(gen).generate();  // 480 samples

    auto normalizer = data::MinMaxNormalizer::fit(dataset);
    auto normalized = normalizer.apply_dataset(dataset);

    nn::MlpSpec spec;
    spec.input_dim = 16 * 16;
    spec.output_dim = 64;
    spec.hidden = 64;
    auto model = nn::build_mlp(spec);

    nn::TrainConfig tc;
    tc.epochs = 30;
    tc.batch_size = 32;
    nn::Trainer trainer(tc);
    nn::Adam adam(2e-3);
    trainer.fit(model, adam, normalized);

    mae_ = nn::Trainer::evaluate(model, normalized).mae;
    solver_ = std::make_shared<DlFieldSolver>(std::move(model), normalizer, gen.binner);
  }

  static void TearDownTestSuite() { solver_.reset(); }

  static std::shared_ptr<DlFieldSolver> solver_;
  static double mae_;
};

std::shared_ptr<DlFieldSolver> TrainedDlPic::solver_;
double TrainedDlPic::mae_ = 0.0;

TEST_F(TrainedDlPic, TrainingReachedUsefulAccuracy) {
  // Max |E| in these runs is ~0.1; a useful surrogate needs MAE well below.
  EXPECT_LT(mae_, 0.01);
}

TEST_F(TrainedDlPic, ReproducesTwoStreamGrowthRate) {
  // The headline validation (paper Fig. 4): the DL-based PIC must grow the
  // most unstable mode at the linear-theory rate.
  auto cfg = small_sim();
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.0;
  cfg.nsteps = 150;
  DlPicSimulation sim(cfg, solver_);
  sim.run();

  auto fit = math::fit_growth_rate(sim.history().times(), sim.history().e1_amplitude());
  ASSERT_TRUE(fit.valid);
  const double gamma_theory = core::two_stream_growth_rate(3.06, 0.2);
  EXPECT_NEAR(fit.gamma, gamma_theory, 0.30 * gamma_theory);
}

TEST_F(TrainedDlPic, EnergyVariationStaysBounded) {
  // Paper Fig. 5: DL-PIC does not conserve energy exactly, but the
  // variation stays at the few-percent level, not runaway.
  auto cfg = small_sim();
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.01;
  cfg.nsteps = 150;
  DlPicSimulation sim(cfg, solver_);
  sim.run();
  EXPECT_LT(sim.history().max_energy_variation(), 0.25);
}

TEST_F(TrainedDlPic, MomentumDriftsUnlikeTraditionalPic) {
  // Paper Fig. 5 (bottom): the DL-PIC momentum drifts visibly; the
  // traditional method conserves it to noise level. Compare the two.
  auto cfg = small_sim();
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.01;
  cfg.nsteps = 150;

  DlPicSimulation dl(cfg, solver_);
  dl.run();
  pic::TraditionalPic trad(cfg);
  trad.run(150);

  // Not a strict physics law — an empirical property of the method that the
  // paper reports; the DL drift should exceed the traditional drift.
  EXPECT_GT(dl.history().max_momentum_drift(),
            trad.history().max_momentum_drift());
}

TEST_F(TrainedDlPic, PhaseSpaceSaturatesLikeTwoStream) {
  // After saturation the trapped vortex widens the velocity distribution
  // well beyond the initial 2*v0 separation.
  auto cfg = small_sim();
  cfg.beams.v0 = 0.2;
  cfg.beams.vth = 0.0;
  cfg.nsteps = 150;
  DlPicSimulation sim(cfg, solver_);
  const double extent0 = pic::velocity_extent(sim.electrons());
  sim.run();
  const double extent1 = pic::velocity_extent(sim.electrons());
  EXPECT_NEAR(extent0, 0.4, 0.05);  // two cold beams at +-0.2
  EXPECT_GT(extent1, 1.5 * extent0);
}

}  // namespace
