#include "pic/species.hpp"

#include <stdexcept>
#include <utility>

namespace dlpic::pic {

Species::Species(std::string name, double charge, double mass)
    : name_(std::move(name)), charge_(charge), mass_(mass) {
  if (!(mass > 0.0)) throw std::invalid_argument("Species: mass must be positive");
}

Species Species::electrons(size_t count, double length) {
  if (count == 0) throw std::invalid_argument("Species::electrons: count must be > 0");
  const double w = length / static_cast<double>(count);
  Species s("electrons", -w, w);
  s.reserve(count);
  return s;
}

void Species::reserve(size_t n) {
  x_.reserve(n);
  v_.reserve(n);
}

void Species::add(double x, double v) {
  x_.push_back(x);
  v_.push_back(v);
}

Species::VelocityMoments Species::velocity_moments() const {
  double sum_v2 = 0.0;
  double sum_v = 0.0;
  for (double vi : v_) {
    sum_v2 += vi * vi;
    sum_v += vi;
  }
  return {0.5 * mass_ * sum_v2, mass_ * sum_v};
}

}  // namespace dlpic::pic
