#pragma once
/// \file simulation.hpp
/// The PIC step loop shared by both methods, and the traditional explicit
/// electrostatic driver (paper §II, Fig. 1): gather -> leap-frog push ->
/// charge deposition -> Poisson field solve, repeated for nsteps. Defaults
/// reproduce the paper's configuration: 64 cells, L = 2*pi/3.06, 1000
/// electrons/cell, dt = 0.2, q/m = -1, motionless neutralizing proton
/// background.

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "math/rng.hpp"
#include "pic/diagnostics.hpp"
#include "pic/grid.hpp"
#include "pic/history.hpp"
#include "pic/loader.hpp"
#include "pic/mover.hpp"
#include "pic/poisson.hpp"
#include "pic/shape.hpp"
#include "pic/sorter.hpp"
#include "pic/species.hpp"
#include "util/parallel.hpp"

namespace dlpic::pic {

/// Full configuration of a PIC run (both methods).
struct SimulationConfig {
  size_t ncells = 64;                 ///< grid cells (paper: 64)
  double length = 2.0 * 3.14159265358979323846 / 3.06;  ///< box size (paper: 2*pi/3.06)
  size_t particles_per_cell = 1000;   ///< electrons per cell (paper: 1000)
  double dt = 0.2;                    ///< time step (paper: 0.2)
  size_t nsteps = 200;                ///< steps (paper: 200, t_end = 40)
  TwoStreamParams beams;              ///< two-stream initial condition
  Shape shape = Shape::CIC;           ///< interpolation/deposition order
  std::string solver = "spectral";    ///< Poisson solver name
  bool spectral_efield = false;       ///< E = -grad phi spectrally vs central diff
  uint64_t seed = 1234;               ///< RNG seed (loading noise)
  size_t nthreads = 0;                ///< worker cap for the stepping thread's parallel
                                      ///< loops; 0 keeps its current width
                                      ///< (DLPIC_THREADS env / hardware)
  size_t sort_interval = 25;          ///< re-sort particles by cell every k steps
                                      ///< for cache locality (0 disables sorting;
                                      ///< traditional PIC only)

  [[nodiscard]] size_t total_particles() const { return ncells * particles_per_cell; }
};

/// The PIC cycle both methods share (paper §II Fig. 1, §III Fig. 2):
/// gather -> leap-frog push -> field stage -> diagnostics. `Derived`
/// supplies only the field stage, `solve_field(std::vector<double>& E)`,
/// which computes E on the grid from the current particles. The loop owns
/// the configuration, grid, particles, field, history and observer.
template <class Derived>
class PicLoop {
 public:
  /// Called after each step with the post-step state; used by the
  /// training-data generator to harvest (phase space, E) pairs.
  using Observer = std::function<void(const Derived&)>;

  /// Advances one full PIC cycle and records diagnostics. `nthreads` caps
  /// the parallel loops the calling thread issues during the cycle
  /// (observer included); other threads keep their own width.
  void step() {
    util::ScopedWorkerCap workers(config_.nthreads);
    // Periodic cache-locality restore: particles drift apart in memory as
    // the instability mixes phase space; a counting sort keeps
    // gather/deposit accesses near-sequential. Done before the push so the
    // sorted order is what the hot loops see.
    if (config_.sort_interval > 0 && steps_taken_ > 0 &&
        steps_taken_ % config_.sort_interval == 0)
      sort_by_cell(grid_, electrons_);
    leapfrog_step(grid_, config_.shape, E_, electrons_, config_.dt);
    self().solve_field(E_);
    time_ += config_.dt;
    ++steps_taken_;
    history_.record(compute_diagnostics(grid_, electrons_, E_, time_));
    if (observer_) observer_(self());
  }

  /// Runs `n` steps (default: the configured nsteps remaining).
  void run(size_t n = 0) {
    const size_t todo =
        (n == 0) ? (config_.nsteps > steps_taken_ ? config_.nsteps - steps_taken_ : 0) : n;
    for (size_t i = 0; i < todo; ++i) step();
  }

  void set_observer(Observer obs) { observer_ = std::move(obs); }

  [[nodiscard]] const Grid1D& grid() const { return grid_; }
  [[nodiscard]] const Species& electrons() const { return electrons_; }
  [[nodiscard]] const std::vector<double>& efield() const { return E_; }
  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] size_t steps_taken() const { return steps_taken_; }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }

 protected:
  /// Validates dt, loads the two-stream particles and reserves the history.
  explicit PicLoop(const SimulationConfig& config)
      : config_(config),
        grid_(config.ncells, config.length),
        electrons_("electrons", -1.0, 1.0),  // placeholder, replaced below
        E_(grid_.make_field()) {
    if (config.dt <= 0.0) throw std::invalid_argument("PicLoop: dt must be positive");
    math::Rng rng(config.seed);
    electrons_ = load_two_stream(grid_, config.total_particles(), config.beams, rng);
    // Room for the initial record plus one per configured step: steady-state
    // steps then append diagnostics without reallocating.
    history_.reserve(config.nsteps + 1);
  }

  /// Computes the initial field, rewinds velocities by dt/2 (leap-frog
  /// stagger) and records the t = 0 diagnostics. Derived constructors call
  /// it once their field stage is ready.
  void start() {
    util::ScopedWorkerCap workers(config_.nthreads);
    self().solve_field(E_);
    if (E_.size() != grid_.ncells())
      throw std::invalid_argument("PicLoop: field stage output size != grid cells");
    stagger_velocities_back(grid_, config_.shape, E_, electrons_, config_.dt);
    history_.record(compute_diagnostics(grid_, electrons_, E_, time_));
  }

  SimulationConfig config_;
  Grid1D grid_;
  Species electrons_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  std::vector<double> E_;
  History history_;
  double time_ = 0.0;
  size_t steps_taken_ = 0;
  Observer observer_;
};

/// Traditional PIC: the field stage is charge deposition + Poisson solve +
/// E = -grad phi.
class TraditionalPic : public PicLoop<TraditionalPic> {
 public:
  /// Builds the initial state: loads particles, deposits charge, solves the
  /// initial field, and rewinds velocities by dt/2 (leap-frog stagger).
  explicit TraditionalPic(const SimulationConfig& config);

  [[nodiscard]] const std::vector<double>& rho() const { return rho_; }

  /// Ion background charge density (uniform, neutralizing).
  [[nodiscard]] double background_density() const { return background_; }

 private:
  friend class PicLoop<TraditionalPic>;
  void solve_field(std::vector<double>& E);

  std::unique_ptr<PoissonSolver> solver_;
  std::vector<double> rho_, phi_;
  double background_ = 0.0;
};

}  // namespace dlpic::pic
