#pragma once
/// \file backend_avx512.hpp
/// AVX-512 VNNI kernel backend. The implementation file is compiled with
/// -mavx512vnni -mavx512bw -mavx512vl (plus the AVX2 unit's flags) on x86-64
/// (see CMakeLists); on other targets, or with compilers lacking the flags,
/// avx512_backend() resolves to nullptr and selection falls through to the
/// AVX2 / scalar backends.
///
/// Scope: the backend is an Avx2Backend (backend_avx2.hpp) that overrides
/// only name() and gemm_int8 — one vpdpbusd replaces the AVX2 kernel's
/// maddubs + madd + add sequence, deliberately at the same 256-bit width
/// (AVX512VL exposes vpdpbusd on ymm): the instruction-count win is kept
/// without the 512-bit license downclocking that would give it back, and
/// AVX512BW masked loads fold the k remainder into one more VNNI step
/// instead of a scalar tail. Every other kernel is inherited, so the f64
/// GEMM, elementwise, optimizer, FFT, PIC and binning paths are not merely
/// equivalent but the same code, and a kernel added to the AVX2 backend
/// reaches this one without a line here.
///
/// Numerics: the ±127 code contract (codes never reach -128) rules out the
/// unsigned-operand saturation edge of vpdpbusd's u8 x s8 products, and the
/// int32 accumulation is exact under the kQuantizedGemmMaxDepth bound, so
/// int8 results are bitwise identical to the scalar and AVX2 backends by
/// construction (tests/nn/test_backend_parity.cpp enforces it).

#include "nn/backend_avx2.hpp"

namespace dlpic::nn {

// The concrete class is private to backend_avx512.cpp; the accessor in
// backend.hpp (avx512_backend()) is the whole public surface.

}  // namespace dlpic::nn
