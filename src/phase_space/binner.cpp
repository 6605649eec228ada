#include "phase_space/binner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "pic/grid.hpp"

namespace dlpic::phase_space {

PhaseSpaceBinner::PhaseSpaceBinner(const BinnerConfig& config) : config_(config) {
  if (config.nx < 2 || config.nv < 2)
    throw std::invalid_argument("PhaseSpaceBinner: need at least 2 bins per axis");
  if (!(config.length > 0.0))
    throw std::invalid_argument("PhaseSpaceBinner: length must be positive");
  if (!(config.vmax > config.vmin))
    throw std::invalid_argument("PhaseSpaceBinner: vmax must exceed vmin");
  const double dx_bin = config.length / static_cast<double>(config.nx);
  const double dv_bin = (config.vmax - config.vmin) / static_cast<double>(config.nv);
  grid_ = {config.nx, config.nv, config.length, config.vmin, config.vmax, 1.0 / dx_bin,
           1.0 / dv_bin};
}

std::vector<double> PhaseSpaceBinner::bin(const pic::Species& species) const {
  return bin(species.x(), species.v());
}

std::vector<double> PhaseSpaceBinner::bin(const std::vector<double>& x,
                                          const std::vector<double>& v) const {
  if (x.size() != v.size()) throw std::invalid_argument("PhaseSpaceBinner: x/v size mismatch");
  const size_t nx = config_.nx;
  const size_t nv = config_.nv;
  std::vector<double> hist(nx * nv, 0.0);
  clamped_ = 0;

  if (config_.order == BinningOrder::NGP) {
    clamped_ = nn::active_backend().bin_ngp()(grid_, x.data(), v.data(), x.size(), hist.data());
    return hist;
  }

  // CIC: bilinear weights over the 4 surrounding bin centers. x wraps
  // periodically; v weights are clamped at the boundary rows.
  for (size_t p = 0; p < x.size(); ++p) {
    const double xp = pic::wrap_periodic(x[p], config_.length);
    double vp = v[p];
    if (!std::isfinite(xp) || std::isnan(vp))
      throw std::invalid_argument("phase-space binning: particle " + std::to_string(p) +
                                  " has a non-finite position or a NaN velocity");
    if (vp < config_.vmin || vp > config_.vmax) {
      ++clamped_;
      vp = std::min(std::max(vp, config_.vmin), config_.vmax);
    }
    const double xi = xp * grid_.inv_dx;                   // in [0, nx)
    const double vi = (vp - config_.vmin) * grid_.inv_dv;  // in [0, nv]
    const double xc = xi - 0.5;
    const double vc = vi - 0.5;
    const long ix0 = static_cast<long>(std::floor(xc));
    const long iv0 = static_cast<long>(std::floor(vc));
    const double fx = xc - static_cast<double>(ix0);
    const double fv = vc - static_cast<double>(iv0);
    const double wx[2] = {1.0 - fx, fx};
    const double wv[2] = {1.0 - fv, fv};
    for (int a = 0; a < 2; ++a) {
      long iv_idx = iv0 + a;
      if (iv_idx < 0) iv_idx = 0;
      if (iv_idx >= static_cast<long>(nv)) iv_idx = static_cast<long>(nv) - 1;
      for (int b = 0; b < 2; ++b) {
        long ix_idx = (ix0 + b) % static_cast<long>(nx);
        if (ix_idx < 0) ix_idx += static_cast<long>(nx);
        hist[static_cast<size_t>(iv_idx) * nx + static_cast<size_t>(ix_idx)] += wv[a] * wx[b];
      }
    }
  }
  return hist;
}

double PhaseSpaceBinner::total_count(const std::vector<double>& histogram) {
  double acc = 0.0;
  for (double h : histogram) acc += h;
  return acc;
}

}  // namespace dlpic::phase_space
