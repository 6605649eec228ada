#pragma once
/// \file grid.hpp
/// One-dimensional periodic grid for the electrostatic PIC method.
///
/// Fields (charge density rho, potential phi, electric field E) live on the
/// `ncells` grid nodes x_i = i*dx, i = 0..ncells-1, with periodic wrap-around
/// x_N == x_0. All PIC quantities in this project are dimensionless with
/// the electron plasma frequency omega_p = 1 and vacuum permittivity
/// epsilon_0 = 1 (paper §III).

#include <cmath>
#include <cstddef>
#include <vector>

namespace dlpic::pic {

/// Maps a position into the periodic box [0, length). A position already in
/// the box is returned unchanged (fmod would return it exactly), so only
/// others pay for fmod; NaN and +-inf take the fmod path and come back NaN.
inline double wrap_periodic(double x, double length) {
  if (x >= 0.0 && x < length) return x;
  double y = std::fmod(x, length);
  if (y < 0.0) y += length;
  // fmod can return length for x just below 0 due to rounding.
  if (y >= length) y -= length;
  return y;
}

/// Geometry and indexing of the periodic 1D grid.
class Grid1D {
 public:
  /// Creates a grid of `ncells` nodes spanning [0, length).
  /// Throws std::invalid_argument for ncells < 2 or non-positive length.
  Grid1D(size_t ncells, double length);

  [[nodiscard]] size_t ncells() const { return ncells_; }
  [[nodiscard]] double length() const { return length_; }
  [[nodiscard]] double dx() const { return dx_; }

  /// Node coordinate x_i = i*dx.
  [[nodiscard]] double node_position(size_t i) const { return static_cast<double>(i) * dx_; }

  /// Periodic node index (handles any int offset, e.g. -1 or ncells+1).
  [[nodiscard]] size_t wrap_node(long i) const {
    const long n = static_cast<long>(ncells_);
    long m = i % n;
    if (m < 0) m += n;
    return static_cast<size_t>(m);
  }

  /// Maps a particle position into [0, length).
  [[nodiscard]] double wrap_position(double x) const { return wrap_periodic(x, length_); }

  /// Allocates a node field initialized to zero.
  [[nodiscard]] std::vector<double> make_field() const {
    return std::vector<double>(ncells_, 0.0);
  }

  /// Wavenumber of Fourier mode m on this grid: k_m = 2*pi*m / length.
  [[nodiscard]] double mode_wavenumber(size_t m) const;

 private:
  size_t ncells_;
  double length_;
  double dx_;
};

}  // namespace dlpic::pic
