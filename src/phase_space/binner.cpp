#include "phase_space/binner.hpp"

#include <cmath>
#include <stdexcept>

#include "pic/grid.hpp"

namespace dlpic::phase_space {

PhaseSpaceBinner::PhaseSpaceBinner(const BinnerConfig& config) : config_(config) {
  if (config.nx < 2 || config.nv < 2)
    throw std::invalid_argument("PhaseSpaceBinner: need at least 2 bins per axis");
  if (!(config.length > 0.0))
    throw std::invalid_argument("PhaseSpaceBinner: length must be positive");
  if (!(config.vmax > config.vmin))
    throw std::invalid_argument("PhaseSpaceBinner: vmax must exceed vmin");
  dx_bin_ = config.length / static_cast<double>(config.nx);
  dv_bin_ = (config.vmax - config.vmin) / static_cast<double>(config.nv);
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

  const double inv_dx = 1.0 / dx_bin_;
  const double inv_dv = 1.0 / dv_bin_;

  for (size_t p = 0; p < x.size(); ++p) {
    // Periodic wrap in x. The mover already wraps into [0, length), so
    // wrap_periodic's in-box fast path returns almost every x unchanged.
    const double xp = pic::wrap_periodic(x[p], config_.length);
    // Clamp in v (velocity axis is not periodic).
    double vp = v[p];
    if (vp < config_.vmin || vp > config_.vmax) {
      ++clamped_;
      vp = std::min(std::max(vp, config_.vmin), config_.vmax);
    }
    const double xi = xp * inv_dx;                    // in [0, nx)
    const double vi = (vp - config_.vmin) * inv_dv;   // in [0, nv]

    if (config_.order == BinningOrder::NGP) {
      size_t ix = static_cast<size_t>(xi);
      if (ix >= nx) ix = nx - 1;
      size_t iv = static_cast<size_t>(vi);
      if (iv >= nv) iv = nv - 1;  // v == vmax lands in the top bin
      hist[iv * nx + ix] += 1.0;
    } else {
      // CIC: bilinear weights over the 4 surrounding bin centers. x wraps
      // periodically; v weights are clamped at the boundary rows.
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
          hist[static_cast<size_t>(iv_idx) * nx + static_cast<size_t>(ix_idx)] +=
              wv[a] * wx[b];
        }
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
