#pragma once
/// \file dlpic.hpp
/// The DL-based PIC method (paper §III, Fig. 2). The computational cycle
/// keeps the traditional interpolation and leap-frog mover, and replaces the
/// deposition + Poisson field-solver stage with:
///   (1) interpolation of particles onto the phase-space grid (binning),
///   (2) one DL electric-field solver inference.

#include <memory>

#include "core/dl_field_solver.hpp"
#include "pic/simulation.hpp"

namespace dlpic::core {

/// DL-based PIC simulation: the shared pic::PicLoop with the DL field
/// stage, so the two methods are directly comparable in experiments.
class DlPicSimulation : public pic::PicLoop<DlPicSimulation> {
 public:
  /// Loads particles per `config` and computes the initial field with the
  /// DL solver. The `solver`, `spectral_efield` and `sort_interval` fields
  /// are ignored: DL-PIC keeps the particles in load order. The solver's
  /// binner box must match the simulation box, and the model output size
  /// must equal the grid cell count.
  DlPicSimulation(const pic::SimulationConfig& config, std::shared_ptr<DlFieldSolver> solver);

  [[nodiscard]] DlFieldSolver& field_solver() { return *solver_; }

 private:
  friend class pic::PicLoop<DlPicSimulation>;
  /// Bin phase space -> normalize -> one network inference.
  void solve_field(std::vector<double>& E) { E = solver_->solve(electrons_); }

  std::shared_ptr<DlFieldSolver> solver_;
};

}  // namespace dlpic::core
