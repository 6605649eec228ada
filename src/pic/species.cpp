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
  // kLanes independent partial sums per moment: lane l adds v[p + l] of
  // every whole block of kLanes, then lane l adds lane l + w for w = 16, 8,
  // 4, 2, 1, and the tail adds serially. The order is written out, and on
  // x86-64 the file is built without FP contraction (CMakeLists), so every
  // -march gives the same bits; the independent lanes let the compiler
  // keep them in vector registers instead of one serial add chain.
  constexpr size_t kLanes = 32;
  double sum_v2[kLanes] = {};
  double sum_v[kLanes] = {};
  const double* v = v_.data();
  const size_t n = v_.size();
  const size_t body = n - n % kLanes;
  for (size_t p = 0; p < body; p += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      sum_v2[l] += v[p + l] * v[p + l];
      sum_v[l] += v[p + l];
    }
  }
  for (size_t w = kLanes / 2; w > 0; w /= 2) {
    for (size_t l = 0; l < w; ++l) {
      sum_v2[l] += sum_v2[l + w];
      sum_v[l] += sum_v[l + w];
    }
  }
  double kinetic = sum_v2[0];
  double momentum = sum_v[0];
  for (size_t p = body; p < n; ++p) {
    kinetic += v[p] * v[p];
    momentum += v[p];
  }
  return {0.5 * mass_ * kinetic, mass_ * momentum};
}

}  // namespace dlpic::pic
