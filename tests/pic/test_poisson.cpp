#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "pic/efield.hpp"
#include "pic/poisson.hpp"

namespace {

using namespace dlpic::pic;

// Analytic check problem: rho(x) = cos(k x) with k = 2*pi*m/L gives
// phi(x) = cos(k x)/k² and E(x) = sin(k x)/k (from -phi'' = rho, E = -phi').
struct PoissonCase {
  std::string solver;
  size_t mode;
};

class PoissonSolvers : public ::testing::TestWithParam<PoissonCase> {};

TEST_P(PoissonSolvers, SolvesSingleModeAnalytically) {
  const auto& pc = GetParam();
  const size_t n = 128;
  const double L = 2.0;
  Grid1D g(n, L);
  const double k = g.mode_wavenumber(pc.mode);

  std::vector<double> rho(n), phi;
  for (size_t i = 0; i < n; ++i) rho[i] = std::cos(k * g.node_position(i));

  auto solver = make_poisson_solver(pc.solver);
  solver->solve(g, rho, phi);
  ASSERT_EQ(phi.size(), n);

  // FD solvers converge at O(dx²); the spectral solver is exact.
  const double tol = (pc.solver == "spectral") ? 1e-10 : 2.0 * (k * k) * (g.dx() * g.dx());
  for (size_t i = 0; i < n; ++i) {
    const double expected = std::cos(k * g.node_position(i)) / (k * k);
    EXPECT_NEAR(phi[i], expected, tol * std::abs(1.0 / (k * k)) + 1e-10)
        << pc.solver << " node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SolversAndModes, PoissonSolvers,
    ::testing::Values(PoissonCase{"spectral", 1}, PoissonCase{"spectral", 5},
                      PoissonCase{"spectral-discrete", 1}, PoissonCase{"tridiag", 1},
                      PoissonCase{"tridiag", 3}));

TEST(Poisson, AllSolversAgreeOnRandomDensity) {
  const size_t n = 64;
  Grid1D g(n, 2.0 * std::numbers::pi / 3.06);
  std::vector<double> rho(n);
  for (size_t i = 0; i < n; ++i)
    rho[i] = std::sin(3.0 * g.node_position(i)) + 0.3 * std::cos(9.0 * g.node_position(i));

  // The FD-based solvers (tridiag, spectral-discrete) solve the same
  // discrete operator and must agree to solver tolerance.
  std::vector<double> phi_td, phi_sd;
  TridiagPoisson().solve(g, rho, phi_td);
  SpectralPoisson(/*discrete_k2=*/true).solve(g, rho, phi_sd);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(phi_td[i], phi_sd[i], 1e-9);
}

TEST(Poisson, GaugeIsZeroMean) {
  const size_t n = 64;
  Grid1D g(n, 1.7);
  std::vector<double> rho(n);
  for (size_t i = 0; i < n; ++i) rho[i] = std::sin(g.mode_wavenumber(2) * g.node_position(i));
  for (const char* name : {"spectral", "spectral-discrete", "tridiag"}) {
    std::vector<double> phi;
    make_poisson_solver(name)->solve(g, rho, phi);
    double mean = 0.0;
    for (double p : phi) mean += p;
    EXPECT_NEAR(mean / n, 0.0, 1e-12) << name;
  }
}

TEST(Poisson, ConstantDensityGivesZeroField) {
  // Uniform rho has no fluctuating part: phi = 0 (neutral plasma limit).
  const size_t n = 32;
  Grid1D g(n, 1.0);
  std::vector<double> rho(n, 4.2), phi;
  for (const char* name : {"spectral", "tridiag"}) {
    make_poisson_solver(name)->solve(g, rho, phi);
    for (double p : phi) EXPECT_NEAR(p, 0.0, 1e-10) << name;
  }
}

TEST(Poisson, UnknownSolverNameThrows) {
  EXPECT_THROW(make_poisson_solver("multigrid"), std::invalid_argument);
}

TEST(Poisson, SizeMismatchThrows) {
  Grid1D g(16, 1.0);
  std::vector<double> rho(8, 0.0), phi;
  EXPECT_THROW(SpectralPoisson().solve(g, rho, phi), std::invalid_argument);
  EXPECT_THROW(TridiagPoisson().solve(g, rho, phi), std::invalid_argument);
}

TEST(Poisson, ResidualOfFdSolversIsSmall) {
  // Verify  (phi[i-1] - 2 phi[i] + phi[i+1])/dx² = -(rho - mean) directly.
  const size_t n = 48;
  Grid1D g(n, 3.3);
  std::vector<double> rho(n);
  for (size_t i = 0; i < n; ++i)
    rho[i] = 0.5 + std::sin(g.mode_wavenumber(1) * g.node_position(i)) +
             0.2 * std::sin(g.mode_wavenumber(7) * g.node_position(i) + 0.3);
  double mean = 0.0;
  for (double r : rho) mean += r;
  mean /= n;

  for (const char* name : {"tridiag", "spectral-discrete"}) {
    std::vector<double> phi;
    make_poisson_solver(name)->solve(g, rho, phi);
    const double inv_dx2 = 1.0 / (g.dx() * g.dx());
    for (size_t i = 0; i < n; ++i) {
      const size_t im = (i == 0) ? n - 1 : i - 1;
      const size_t ip = (i + 1 == n) ? 0 : i + 1;
      const double lap = (phi[im] - 2.0 * phi[i] + phi[ip]) * inv_dx2;
      EXPECT_NEAR(lap, -(rho[i] - mean), 1e-8) << name << " node " << i;
    }
  }
}

}  // namespace
