#pragma once
/// \file fft.hpp
/// FFT helpers around the plan engine.
///
/// Transforms run through the interned plans of fft_plan.hpp
/// (math::get_fft_plan: radix-4/radix-2 Cooley–Tukey for powers of two,
/// Bluestein otherwise). This header keeps the per-mode electric-field
/// amplitude diagnostic (|E_k|, the paper's Fig. 4 E1 series), the direct
/// DFT the plan engine is tested against, and the power-of-two check.

#include <complex>
#include <vector>

namespace dlpic::math {

using cplx = std::complex<double>;

/// Amplitude of harmonic `mode` of a real signal, normalized so that
/// x[n] = A cos(2π·mode·n/N + φ) gives amplitude(mode) == A. Single-bin
/// Goertzel recurrence: O(n), no transform, no allocation at any size.
double mode_amplitude(const std::vector<double>& signal, size_t mode);

/// Direct O(n²) DFT from the definition (sign per `inverse`, inverse
/// includes the 1/n normalization). The correctness reference the plan
/// engine is tested against — not a fallback path anymore.
std::vector<cplx> dft_reference(const std::vector<cplx>& data, bool inverse);

/// True when n is a power of two (n >= 1).
bool is_pow2(size_t n);

}  // namespace dlpic::math
