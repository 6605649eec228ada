#pragma once
/// \file backend_avx512.hpp
/// AVX-512 kernel backend. The implementation file is compiled with
/// -mavx512f -mavx512vnni -mavx512bw -mavx512vl (plus the AVX2 unit's
/// flags) on x86-64 (see CMakeLists); on other targets, or with compilers
/// lacking the flags, avx512_backend() resolves to nullptr and selection
/// falls through to the AVX2 / scalar backends.
///
/// Scope: the backend is an Avx2Backend (backend_avx2.hpp) that overrides
/// name() and five kernels. Every other kernel is inherited, so the
/// elementwise, optimizer, FFT, PIC gather and deposit and binning paths
/// and the packed f64 GEMM are not merely equivalent but the same code, and
/// a kernel added to the AVX2 backend reaches this one without a line here.
///  - gemm_nt_block, the skinny f64 GEMM of a small-batch dense forward, on
///    512-bit lanes for 4 to 16 rows: 8 output columns per zmm accumulator,
///    each 4-deep k group of 8 weight rows transposed in registers, and up
///    to 16 rows (12 accumulators at serving's batch 12) fed from each
///    transposed tile, so math::gemm, which passes up to 16 packed rows per
///    call, reads each weight panel once per batch instead of once per 4
///    rows. This kernel is 512-bit because the AVX2 one spends its time
///    loading and transposing weights, once per 4-row group; here each
///    weight is loaded and transposed once per batch and feeds 8 columns.
///    Fewer than 4 rows (the DL-PIC field solve's batch 1) stay on the AVX2
///    kernel, as do panels deeper than math::gemm's 256-deep k-blocks and
///    the columns past the last group of 8. On a 4-vCPU Xeon, one pinned
///    worker, the batch-12 CI MLP layers ran 1.5x (the 16%-occupied
///    1024 -> 128 first layer) and 1.9x (a dense 128 -> 128 layer) faster
///    than on the AVX2 kernel, and perfbench's serve_ci throughput rose
///    1.33x with p50 latency unchanged.
///  - gemm_nn_block, the same product for a loaded (input-major) weight, on
///    zmm: one row walks each live weight row across the whole width, 2 to
///    16 rows are register-blocked in groups of up to 8.
///  - pic_leapfrog and pic_stagger, the particle push and the half-step
///    velocity stagger, for NGP, CIC and TSC: 8 particles per step on zmm,
///    each stencil node one vgatherdpd of int32 indices, with the AVX2
///    kernel's exact weight formulas and order, a +0.0 gather accumulator,
///    no FMA, and the in-box vector store or a per-lane wrap_periodic. A
///    group holding a non-finite x, and the tail, run backend_detail's
///    scalar ranges. On a 4-vCPU Xeon, one pinned worker, the serial CIC
///    push of 64k particles in a zero-mean field ran in 0.15 ms against the
///    AVX2 kernel's 0.20 ms; perfbench's traced pic_paper push fell from
///    0.19-0.20 to 0.13 ms per step.
///  - gemm_int8 on vpdpbusd: one instruction replaces the AVX2 kernel's
///    maddubs + madd + add sequence at the same 256-bit width (AVX512VL
///    exposes vpdpbusd on ymm), and AVX512BW masked loads fold the k
///    remainder into one more VNNI step instead of a scalar tail.
///
/// Numerics: every skinny output keeps the AVX2 kernel's sequence (a fresh
/// accumulator, fmadd over ascending p, C += acc, the same 4-column fmadd
/// groups and mul-then-add tail) and skips only k groups that are ±0 in
/// every row, so f64 results are bitwise the AVX2 ones at every batch size
/// (see KernelBackend::gemm_nt_block for the finite-weight condition); the
/// same holds for gemm_nn_block. The
/// ±127 code contract (codes never reach -128) rules out the
/// unsigned-operand saturation edge of vpdpbusd's u8 x s8 products, and the
/// int32 accumulation is exact under the kQuantizedGemmMaxDepth bound, so
/// int8 results are bitwise identical to the scalar and AVX2 backends by
/// construction. Positions and velocities from the push and stagger are
/// bitwise the AVX2 and scalar ones. tests/nn/test_backend_parity.cpp
/// enforces all three.

#include "nn/backend_avx2.hpp"

namespace dlpic::nn {

// The concrete class is private to backend_avx512.cpp; the accessor in
// backend.hpp (avx512_backend()) is the whole public surface.

}  // namespace dlpic::nn
