#include "math/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>


namespace dlpic::math {

bool is_pow2(size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

double mode_amplitude(const std::vector<double>& signal, size_t mode) {
  const size_t n = signal.size();
  if (mode >= n) throw std::invalid_argument("mode_amplitude: mode out of range");
  // Goertzel single-bin recurrence: |X_mode| in one O(n) pass with two
  // state doubles — no transform buffer, so the per-step diagnostics stay
  // allocation-free at every size.
  const double w = 2.0 * std::numbers::pi * static_cast<double>(mode) /
                   static_cast<double>(n);
  const double coeff = 2.0 * std::cos(w);
  double s1 = 0.0, s2 = 0.0;
  for (const double x : signal) {
    const double s0 = x + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  const double power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
  const double mag = std::sqrt(power > 0.0 ? power : 0.0);
  // One-sided amplitude: DC and Nyquist are not doubled.
  const bool two_sided = (mode != 0) && !(n % 2 == 0 && mode == n / 2);
  return (two_sided ? 2.0 : 1.0) * mag / static_cast<double>(n);
}

std::vector<cplx> dft_reference(const std::vector<cplx>& data, bool inverse) {
  const size_t n = data.size();
  std::vector<cplx> out(n, cplx(0.0, 0.0));
  const double sign = inverse ? 2.0 : -2.0;
  for (size_t k = 0; k < n; ++k) {
    for (size_t j = 0; j < n; ++j) {
      // Reduce k*j mod n before the float cast: e^{±2πi kj/n} is periodic
      // in kj with period n, and the reduced angle keeps full precision
      // where the raw product would round (large n, high modes).
      const size_t m = (k * j) % n;
      const double ang =
          sign * std::numbers::pi * static_cast<double>(m) / static_cast<double>(n);
      out[k] += data[j] * cplx(std::cos(ang), std::sin(ang));
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : out) v *= inv_n;
  }
  return out;
}

}  // namespace dlpic::math
