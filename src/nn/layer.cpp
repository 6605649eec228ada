#include "nn/layer.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/parallel.hpp"

namespace dlpic::nn::detail {

void parallel_copy(const double* src, double* dst, size_t n) {
  util::parallel_for_chunks(
      0, n,
      [&](size_t lo, size_t hi) { std::memcpy(dst + lo, src + lo, (hi - lo) * sizeof(double)); },
      kElemGrain);
}

std::vector<double> read_param(util::BinaryReader& r, std::initializer_list<size_t> dims,
                               const char* what) {
  std::vector<double> values = r.read_f64_vector();
  size_t volume = 1;
  for (const size_t d : dims)
    if (__builtin_mul_overflow(volume, d, &volume))
      throw std::runtime_error(std::string(what) + ": parameter size mismatch");
  if (values.size() != volume)
    throw std::runtime_error(std::string(what) + ": parameter size mismatch");
  for (const double v : values)
    if (!std::isfinite(v))
      throw std::runtime_error(std::string(what) + ": non-finite parameter");
  return values;
}

}  // namespace dlpic::nn::detail
