#include "core/dlpic.hpp"

#include <cmath>
#include <stdexcept>

namespace dlpic::core {

namespace {

// Sorting permutes the particle arrays. DL-PIC keeps load order so its runs
// stay bitwise comparable with perfbench's unsorted DL replica.
pic::SimulationConfig without_sort(pic::SimulationConfig config) {
  config.sort_interval = 0;
  return config;
}

}  // namespace

DlPicSimulation::DlPicSimulation(const pic::SimulationConfig& config,
                                 std::shared_ptr<DlFieldSolver> solver)
    : PicLoop(without_sort(config)), solver_(std::move(solver)) {
  if (!solver_) throw std::invalid_argument("DlPicSimulation: null field solver");
  const auto& bc = solver_->binner_config();
  if (std::abs(bc.length - config_.length) > 1e-12 * config_.length)
    throw std::invalid_argument("DlPicSimulation: solver binner box != simulation box");
  start();
}

}  // namespace dlpic::core
