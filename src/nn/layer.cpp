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

void require_finite(const std::vector<double>& values, const char* what) {
  for (const double v : values)
    if (!std::isfinite(v))
      throw std::runtime_error(std::string(what) + ": non-finite parameter");
}

}  // namespace dlpic::nn::detail
