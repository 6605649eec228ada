#pragma once
/// \file binner.hpp
/// Phase-space binning (paper §III, Fig. 2 grey box): interpolate particle
/// positions and velocities onto a fixed 2D (x, v) grid, producing the
/// histogram "image" that is the input of the DL electric-field solver.
///
/// The paper uses NGP binning and notes (§VII) that higher-order
/// interpolation would mitigate binning artifacts — we provide both NGP and
/// CIC (bilinear) so that ablation A1 can quantify that claim.

#include <cstddef>
#include <vector>

#include "nn/backend.hpp"
#include "pic/species.hpp"

namespace dlpic::phase_space {

/// Binning order for the phase-space histogram.
enum class BinningOrder { NGP, CIC };

/// Geometry of the phase-space grid: nx bins over x in [0, length),
/// nv bins over v in [vmin, vmax].
struct BinnerConfig {
  size_t nx = 64;
  size_t nv = 64;
  double length = 2.0 * 3.14159265358979323846 / 3.06;
  double vmin = -0.65;
  double vmax = 0.65;
  BinningOrder order = BinningOrder::NGP;
};

/// Bins particles into a row-major [nv x nx] histogram (row = velocity bin,
/// column = position bin, matching the scatter-plot orientation of Fig. 3).
class PhaseSpaceBinner {
 public:
  explicit PhaseSpaceBinner(const BinnerConfig& config);

  /// Accumulates the histogram of `species`. Particle x is wrapped
  /// periodically; v outside [vmin, vmax] is clamped into the edge bins
  /// (and counted in clamped_particles()). A particle with a NaN v, or an x
  /// that is not finite after the wrap, throws std::invalid_argument naming
  /// its index. NGP binning runs the active backend's bin_ngp kernel
  /// (nn::KernelBackend); every backend gives the same histogram.
  [[nodiscard]] std::vector<double> bin(const pic::Species& species) const;

  /// Histogram from raw coordinate arrays (used by tests and tools).
  [[nodiscard]] std::vector<double> bin(const std::vector<double>& x,
                                        const std::vector<double>& v) const;

  [[nodiscard]] const BinnerConfig& config() const { return config_; }
  [[nodiscard]] size_t size() const { return config_.nx * config_.nv; }

  /// Particles clamped in v during the most recent bin() call.
  [[nodiscard]] size_t clamped_particles() const { return clamped_; }

  /// Sum of all histogram counts — equals the particle count for both
  /// binning orders (total-count conservation, a tested invariant).
  static double total_count(const std::vector<double>& histogram);

 private:
  BinnerConfig config_;
  nn::KernelBackend::PhaseSpaceGrid grid_;
  mutable size_t clamped_ = 0;
};

}  // namespace dlpic::phase_space
