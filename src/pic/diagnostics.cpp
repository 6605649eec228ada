#include "pic/diagnostics.hpp"

#include <algorithm>
#include <cmath>

#include "math/fft.hpp"
#include "pic/deposit.hpp"
#include "pic/efield.hpp"

namespace dlpic::pic {

StepDiagnostics compute_diagnostics(const Grid1D& grid, const Species& species,
                                    const std::vector<double>& E, double time) {
  StepDiagnostics d;
  d.time = time;
  d.field_energy = field_energy(grid, E);
  const auto moments = species.velocity_moments();
  d.kinetic_energy = moments.kinetic_energy;
  d.total_energy = d.field_energy + d.kinetic_energy;
  d.momentum = moments.momentum;
  d.e1_amplitude = field_mode_amplitude(E, 1);
  d.e_max = 0.0;
  for (double e : E) d.e_max = std::max(d.e_max, std::abs(e));
  return d;
}

double field_mode_amplitude(const std::vector<double>& field, size_t mode) {
  return math::mode_amplitude(field, mode);
}

double beam_velocity_spread(const Species& species, bool positive_beam) {
  const auto& v = species.v();
  double sum = 0.0;
  size_t n = 0;
  for (double vi : v) {
    if (positive_beam ? (vi > 0.0) : (vi < 0.0)) {
      sum += vi;
      ++n;
    }
  }
  if (n < 2) return 0.0;
  const double mean = sum / static_cast<double>(n);
  // Two-pass variance: exact zero for identical velocities (cold beam).
  double ss = 0.0;
  for (double vi : v) {
    if (positive_beam ? (vi > 0.0) : (vi < 0.0)) ss += (vi - mean) * (vi - mean);
  }
  const double var = ss / static_cast<double>(n);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double velocity_extent(const Species& species) {
  const auto& v = species.v();
  if (v.empty()) return 0.0;
  const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
  return *mx - *mn;
}

RippleDiagnostics charge_ripple(const Grid1D& grid, const Species& species,
                                double background_density) {
  const auto rho = charge_density(grid, Shape::CIC, species, background_density);
  RippleDiagnostics out;
  for (size_t m = 1; m < grid.ncells() / 2; ++m) {
    const double a = math::mode_amplitude(rho, m);
    if (a > out.amplitude) {
      out.amplitude = a;
      out.mode = m;
    }
  }
  return out;
}

}  // namespace dlpic::pic
