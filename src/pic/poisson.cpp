#include "pic/poisson.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "math/fft.hpp"
#include "math/tridiag.hpp"

namespace dlpic::pic {

namespace {

double mean_of(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

void shift_to_zero_mean(std::vector<double>& v) {
  const double m = mean_of(v);
  for (double& x : v) x -= m;
}

}  // namespace

void SpectralPoisson::solve(const Grid1D& grid, const std::vector<double>& rho,
                            std::vector<double>& phi) {
  const size_t n = grid.ncells();
  if (rho.size() != n) throw std::invalid_argument("SpectralPoisson: rho size mismatch");

  if (plan_ == nullptr || plan_->size() != n) plan_ = &math::get_fft_plan(n);
  spec_.resize(plan_->spectrum_size());
  plan_->rfft(rho.data(), spec_.data());

  spec_[0] = math::cplx(0.0, 0.0);  // gauge: drop the mean
  const double dx = grid.dx();
  for (size_t m = 1; m < spec_.size(); ++m) {
    // Packed real spectrum: every stored bin is a non-negative wavenumber
    // (the negative mirror is implied by conjugate symmetry, and k² is even
    // in k anyway).
    const double mm = static_cast<double>(m);
    double k2 = 0.0;
    if (discrete_k2_) {
      const double theta = 2.0 * std::numbers::pi * mm / static_cast<double>(n);
      k2 = (2.0 - 2.0 * std::cos(theta)) / (dx * dx);
    } else {
      const double k = 2.0 * std::numbers::pi * mm / grid.length();
      k2 = k * k;
    }
    spec_[m] /= k2;  // phi_k = rho_k / k²  (from -phi'' = rho)
  }

  phi.resize(n);
  plan_->irfft(spec_.data(), phi.data());
  shift_to_zero_mean(phi);
}

void TridiagPoisson::solve(const Grid1D& grid, const std::vector<double>& rho,
                           std::vector<double>& phi) {
  const size_t n = grid.ncells();
  if (rho.size() != n) throw std::invalid_argument("TridiagPoisson: rho size mismatch");
  if (n < 3) throw std::invalid_argument("TridiagPoisson: need at least 3 cells");

  // Remove the mean so the singular periodic system becomes consistent,
  // then pin phi[0] = 0 and solve the reduced system for phi[1..n-1]:
  //   (phi[i-1] - 2 phi[i] + phi[i+1]) / dx² = -rho[i],  i = 1..n-1,
  // with phi[0] = phi[n] = 0 entering the i=1 and i=n-1 rows as knowns.
  const double dx2 = grid.dx() * grid.dx();
  const double mean = mean_of(rho);

  const size_t m = n - 1;
  a_.assign(m, 1.0);
  b_.assign(m, -2.0);
  c_.assign(m, 1.0);
  d_.resize(m);
  for (size_t i = 0; i < m; ++i) d_[i] = -(rho[i + 1] - mean) * dx2;
  // phi[0] = 0 contributions are already zero on both boundary rows.
  math::solve_tridiagonal_into(a_, b_, c_, d_, x_, cp_, dp_);

  phi.assign(n, 0.0);
  for (size_t i = 0; i < m; ++i) phi[i + 1] = x_[i];
  shift_to_zero_mean(phi);
}

std::unique_ptr<PoissonSolver> make_poisson_solver(const std::string& name) {
  if (name == "spectral") return std::make_unique<SpectralPoisson>(false);
  if (name == "spectral-discrete") return std::make_unique<SpectralPoisson>(true);
  if (name == "tridiag") return std::make_unique<TridiagPoisson>();
  throw std::invalid_argument("make_poisson_solver: unknown solver '" + name + "'");
}

}  // namespace dlpic::pic
