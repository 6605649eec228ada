#pragma once
/// \file species.hpp
/// Structure-of-arrays particle container for one plasma species.
///
/// A species carries per-particle positions and velocities plus the
/// macro-particle charge/mass shared by all particles. With omega_p = 1,
/// epsilon_0 = 1 and mean density n0 = N/L, electrons satisfy
/// q = -L/N, m = L/N (so q/m = -1, paper §III).

#include <cstddef>
#include <string>
#include <vector>

namespace dlpic::pic {

/// One particle species (SoA layout for streaming access in hot loops).
class Species {
 public:
  /// Creates an empty species. `charge`/`mass` are per macro-particle.
  Species(std::string name, double charge, double mass);

  /// Creates electrons normalized for a box of `length` holding `count`
  /// macro-particles: q = -length/count, m = length/count.
  static Species electrons(size_t count, double length);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double charge() const { return charge_; }
  [[nodiscard]] double mass() const { return mass_; }
  [[nodiscard]] double charge_over_mass() const { return charge_ / mass_; }
  [[nodiscard]] size_t size() const { return x_.size(); }

  /// Reserves storage for n particles.
  void reserve(size_t n);

  /// Appends one particle.
  void add(double x, double v);

  [[nodiscard]] std::vector<double>& x() { return x_; }
  [[nodiscard]] std::vector<double>& v() { return v_; }
  [[nodiscard]] const std::vector<double>& x() const { return x_; }
  [[nodiscard]] const std::vector<double>& v() const { return v_; }

  /// Total kinetic energy and momentum of the species.
  struct VelocityMoments {
    double kinetic_energy;  ///< 0.5 * m * sum(v^2)
    double momentum;        ///< m * sum(v)
  };

  /// Both moments from one pass over v, each summed in particle order.
  [[nodiscard]] VelocityMoments velocity_moments() const;

 private:
  std::string name_;
  double charge_;
  double mass_;
  std::vector<double> x_;
  std::vector<double> v_;
};

}  // namespace dlpic::pic
