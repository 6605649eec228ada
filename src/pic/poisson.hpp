#pragma once
/// \file poisson.hpp
/// Field-solver stage (paper §II, Eq. 3): solve  d²phi/dx² = -rho/eps0  on
/// the periodic grid, with eps0 = 1 in normalized units.
///
/// The periodic Laplacian is singular (constant null space); all solvers
/// therefore work with the mean-free part of rho and pin the gauge
/// mean(phi) = 0. Two interchangeable implementations are provided:
///
///  * SpectralPoisson  — FFT diagonalization, phi_k = rho_k / k². Uses the
///    exact continuum k² by default or the discrete-Laplacian eigenvalue
///    (2-2cos(k dx))/dx² when `discrete_k2` is set (the latter matches the
///    finite-difference solver to round-off).
///  * TridiagPoisson   — second-order central differences; gauge fixed by
///    pinning phi[0] = 0 and solving the reduced (n-1) Thomas system, then
///    shifting to mean zero.

#include <memory>
#include <string>
#include <vector>

#include "math/fft.hpp"
#include "math/fft_plan.hpp"
#include "pic/grid.hpp"

namespace dlpic::pic {

/// Interface for Poisson solvers: rho (size ncells) -> phi (size ncells).
///
/// Instances carry reusable work buffers so a steady-state solve at a fixed
/// grid size performs no heap allocation — the PIC step's zero-allocation
/// test depends on this, and with the plan-based rfft engine the guarantee
/// holds at every grid size, power of two or not.
/// solve() is therefore non-const: one instance serves one thread at a
/// time, and concurrent simulations each own their own solver (as
/// make_poisson_solver-per-simulation already arranges).
class PoissonSolver {
 public:
  virtual ~PoissonSolver() = default;

  /// Solves for the electrostatic potential with gauge mean(phi) = 0.
  /// `rho` may have nonzero mean; only its fluctuating part matters.
  virtual void solve(const Grid1D& grid, const std::vector<double>& rho,
                     std::vector<double>& phi) = 0;

  /// Identifier used in configs and benchmark labels.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// FFT-based spectral solver (default in simulations). Owns the interned
/// FftPlan for the grid size and solves through the real-to-complex path:
/// rho --rfft--> n/2+1 bins --/k²--> --irfft--> phi, half the transform
/// work of the old full-complex route.
class SpectralPoisson final : public PoissonSolver {
 public:
  /// When `discrete_k2` is true, divides by the eigenvalue of the discrete
  /// 3-point Laplacian instead of the continuum k².
  explicit SpectralPoisson(bool discrete_k2 = false) : discrete_k2_(discrete_k2) {}
  void solve(const Grid1D& grid, const std::vector<double>& rho,
             std::vector<double>& phi) override;
  [[nodiscard]] std::string name() const override {
    return discrete_k2_ ? "spectral-discrete" : "spectral";
  }

 private:
  bool discrete_k2_;
  const math::FftPlan* plan_ = nullptr;  // interned; refreshed on size change
  std::vector<math::cplx> spec_;         // reused packed real spectrum
};

/// Second-order finite-difference solver via the Thomas algorithm.
class TridiagPoisson final : public PoissonSolver {
 public:
  void solve(const Grid1D& grid, const std::vector<double>& rho,
             std::vector<double>& phi) override;
  [[nodiscard]] std::string name() const override { return "tridiag"; }

 private:
  // Reused Thomas-system buffers (coefficients + sweep scratch).
  std::vector<double> a_, b_, c_, d_, x_, cp_, dp_;
};

/// Factory: "spectral" | "spectral-discrete" | "tridiag".
std::unique_ptr<PoissonSolver> make_poisson_solver(const std::string& name);

}  // namespace dlpic::pic
