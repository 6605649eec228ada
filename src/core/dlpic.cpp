#include "core/dlpic.hpp"

#include <cmath>
#include <stdexcept>

#include "math/rng.hpp"
#include "pic/loader.hpp"
#include "pic/mover.hpp"

namespace dlpic::core {

DlPicSimulation::DlPicSimulation(const pic::SimulationConfig& config,
                                 std::shared_ptr<DlFieldSolver> solver)
    : config_(config),
      grid_(config.ncells, config.length),
      electrons_("electrons", -1.0, 1.0),  // placeholder, replaced below
      solver_(std::move(solver)) {
  if (!solver_) throw std::invalid_argument("DlPicSimulation: null field solver");
  if (config_.dt <= 0.0) throw std::invalid_argument("DlPicSimulation: dt must be positive");
  const auto& bc = solver_->binner_config();
  if (std::abs(bc.length - config_.length) > 1e-12 * config_.length)
    throw std::invalid_argument("DlPicSimulation: solver binner box != simulation box");

  math::Rng rng(config_.seed);
  electrons_ = pic::load_two_stream(grid_, config_.total_particles(), config_.beams, rng);
  history_.reserve(config_.nsteps + 1);

  solve_field();
  if (E_.size() != grid_.ncells())
    throw std::invalid_argument("DlPicSimulation: model output size != grid cells");
  pic::stagger_velocities_back(grid_, config_.shape, E_, electrons_, config_.dt);
  history_.record(pic::compute_diagnostics(grid_, electrons_, E_, time_));
}

void DlPicSimulation::solve_field() { E_ = solver_->solve(electrons_); }

void DlPicSimulation::step() {
  pic::leapfrog_step(grid_, config_.shape, E_, electrons_, config_.dt);
  solve_field();
  time_ += config_.dt;
  ++steps_taken_;
  history_.record(pic::compute_diagnostics(grid_, electrons_, E_, time_));
  if (observer_) observer_(*this);
}

void DlPicSimulation::run(size_t n) {
  const size_t todo =
      (n == 0) ? (config_.nsteps > steps_taken_ ? config_.nsteps - steps_taken_ : 0) : n;
  for (size_t i = 0; i < todo; ++i) step();
}

}  // namespace dlpic::core
