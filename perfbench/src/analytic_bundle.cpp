#include "analytic_bundle.hpp"

#include <stdexcept>

#include "nn/dense.hpp"
#include "nn/model_zoo.hpp"
#include "pic/efield.hpp"
#include "pic/poisson.hpp"

namespace perfbench {

using namespace dlpic;

std::vector<double> field_response(const pic::SimulationConfig& config) {
  const size_t n = config.ncells;
  const pic::Grid1D grid(n, config.length);
  auto solver = pic::make_poisson_solver(config.solver);
  std::vector<double> rho(n), phi(n), E(n), G(n * n);
  for (size_t k = 0; k < n; ++k) {
    rho.assign(n, 0.0);
    rho[k] = 1.0;
    solver->solve(grid, rho, phi);
    if (config.spectral_efield)
      pic::efield_from_phi_spectral(grid, phi, E);
    else
      pic::efield_from_phi(grid, phi, E);
    for (size_t i = 0; i < n; ++i) G[i * n + k] = E[i];
  }
  return G;
}

core::DlFieldSolver build_analytic_solver(const pic::SimulationConfig& config) {
  const size_t n = config.ncells;
  phase_space::BinnerConfig binner;  // paper geometry: 64 velocity bins over +-0.65
  binner.nx = n;
  binner.length = config.length;

  nn::MlpSpec spec;  // paper widths: 3 x 1024 hidden
  spec.input_dim = binner.nx * binner.nv;
  spec.output_dim = n;
  nn::Sequential model = nn::build_mlp(spec);
  if (spec.hidden < 2 * n) throw std::invalid_argument("analytic bundle: hidden < 2 ncells");

  auto dense = [&model](size_t layer) -> nn::Dense& {
    return dynamic_cast<nn::Dense&>(model.layer(layer));
  };
  const size_t analytic = 2 * n;  // the +rho / -rho unit pairs

  // Layer 0: histogram -> +-rho_e at each node.
  {
    nn::Dense& d = dense(0);
    const size_t in = d.in_features();
    const double dx = config.length / static_cast<double>(n);
    const double q = -config.length / static_cast<double>(config.total_particles());
    const double w = 0.5 * q * kAnalyticNormalizerMax / dx;
    double* W = d.weight().data();
    for (size_t j = 0; j < analytic; ++j) {
      double* row = W + j * in;
      for (size_t c = 0; c < in; ++c) row[c] = 0.0;
      const size_t node = j % n;
      const double sign = j < n ? 1.0 : -1.0;
      for (size_t iv = 0; iv < binner.nv; ++iv) {
        row[iv * binner.nx + (node + n - 1) % n] = sign * w;
        row[iv * binner.nx + node] = sign * w;
      }
      d.bias().data()[j] = 0.0;
    }
  }

  // Hidden layers after the first: identity on the analytic units, and the
  // random units' outputs never reach them.
  const size_t out_layer = model.layer_count() - 1;
  for (size_t l = 2; l < out_layer; l += 2) {
    nn::Dense& d = dense(l);
    const size_t in = d.in_features();
    double* W = d.weight().data();
    for (size_t j = 0; j < analytic; ++j) {
      for (size_t c = 0; c < in; ++c) W[j * in + c] = (c == j) ? 1.0 : 0.0;
      d.bias().data()[j] = 0.0;
    }
  }

  // Output layer: E = G (h+ - h-); zero weight on every random unit.
  {
    const std::vector<double> G = field_response(config);
    nn::Dense& d = dense(out_layer);
    const size_t in = d.in_features();
    double* W = d.weight().data();
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < in; ++c) W[i * in + c] = 0.0;
      for (size_t k = 0; k < n; ++k) {
        W[i * in + k] = G[i * n + k];
        W[i * in + n + k] = -G[i * n + k];
      }
      d.bias().data()[i] = 0.0;
    }
  }

  return core::DlFieldSolver(std::move(model),
                             data::MinMaxNormalizer(0.0, kAnalyticNormalizerMax), binner);
}

}  // namespace perfbench
