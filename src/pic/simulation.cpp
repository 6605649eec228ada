#include "pic/simulation.hpp"

#include "pic/deposit.hpp"
#include "pic/efield.hpp"

namespace dlpic::pic {

TraditionalPic::TraditionalPic(const SimulationConfig& config)
    : PicLoop(config), solver_(make_poisson_solver(config.solver)) {
  // Uniform neutralizing background: cancels the mean electron density
  // (electron charge q = -L/N, so mean rho_e = -1 and background = +1).
  background_ = -electrons_.charge() * static_cast<double>(electrons_.size()) /
                grid_.length();
  rho_ = grid_.make_field();
  phi_ = grid_.make_field();
  start();
}

void TraditionalPic::solve_field(std::vector<double>& E) {
  rho_.assign(grid_.ncells(), 0.0);
  deposit_charge(grid_, config_.shape, electrons_, rho_);
  for (auto& r : rho_) r += background_;
  solver_->solve(grid_, rho_, phi_);
  if (config_.spectral_efield)
    efield_from_phi_spectral(grid_, phi_, E);
  else
    efield_from_phi(grid_, phi_, E);
}

}  // namespace dlpic::pic
