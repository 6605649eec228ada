#pragma once
/// \file backend.hpp
/// Pluggable compute-kernel backend: one vtable of hot inner loops shared by
/// the whole execution stack (math/linalg GEMM micro-kernels, the elementwise
/// nn layer and optimizer kernels, the FFT passes, the PIC
/// gather/deposit/leapfrog ranges and NGP phase-space binning). Three
/// implementations ship, each overriding only what its instructions change:
///  - ScalarBackend (backend_scalar.*): the portable f64 and int8 GEMM
///    micro-kernels, PIC ranges and binning; every other kernel is the
///    base-class reference.
///  - Avx2Backend (backend_avx2.*): AVX2+FMA intrinsics for the GEMMs, FFT
///    passes, PIC ranges and binning, and the shared elementwise bodies
///    (backend_elementwise.hpp) compiled with its flags.
///  - Avx512VnniBackend (backend_avx512.cpp): an Avx2Backend that
///    overrides the skinny f64 GEMMs (gemm_nt_block on zmm for 4 to 16
///    rows, gemm_nn_block on zmm), the PIC push and stagger (8 particles
///    per zmm step) and the int8 GEMM (vpdpbusd).
/// The SIMD files are compiled with per-file target flags on x86-64 and
/// selected at runtime via cpuid.
///
/// Selection rules:
///  - default_backend() resolves once per process from the DLPIC_BACKEND
///    environment variable: "scalar", "avx2", "avx512" (the latter two fall
///    back to scalar with a warning when the CPU or build lacks them), or
///    "auto"/unset (avx512 when available, else avx2, else scalar).
///  - active_backend() is the thread's current backend: a ScopedBackend
///    override when one is in scope, otherwise the process default.
///    ExecutionContext::set_backend() pins a context to a backend; every
///    layer call applies it through ScopedBackend, mirroring the worker-cap
///    plumbing.
///  - Kernels that fan out over the thread pool must capture the backend
///    pointer BEFORE dispatching (thread-locals do not propagate to pool
///    workers); every routed call site in this repo does.
///
/// Determinism contract: within one backend, results are bitwise invariant
/// under the worker count (all reductions keep fixed k-/block-order and the
/// elementwise kernels are pure maps). Switching backends may change bits in
/// GEMM-backed results (the AVX2 micro-kernel uses FMA), while the
/// elementwise, optimizer, FFT, PIC and binning kernels run the scalar
/// operations in the scalar order and stay bitwise identical across
/// backends (tests/nn/test_backend_parity.cpp enforces both properties).
///
/// This header deliberately depends on nothing but <cstddef>/<cstdint> so
/// the lower layers (math, pic) can include it without cycles.

#include <cstddef>
#include <cstdint>

namespace dlpic::nn {

/// Largest k the int8 GEMM kernels accept: every dot product accumulates in
/// one int32, and with codes clamped to [-127, 127] the worst case is
/// k * 127^2, so k must satisfy k * 16129 <= 2^31 - 1.
inline constexpr size_t kQuantizedGemmMaxDepth = 133144;

/// Largest k the int16 GEMM kernels accept. The int64 accumulator itself is
/// nowhere near overflow, but the dequantization casts the sum to double:
/// bounding k * 32767^2 <= 2^53 (k <= 2^23) keeps that conversion exact, so
/// the int16 tier's bitwise and accuracy contracts never hinge on int64 ->
/// double rounding.
inline constexpr size_t kQuantizedGemmInt16MaxDepth = size_t(1) << 23;

/// Abstract kernel backend. Granularity: one virtual call per *range* (a
/// GEMM panel, an elementwise chunk, a particle range), never per element,
/// so dispatch cost is immeasurable against the loop bodies.
class KernelBackend {
 public:
  // Defined out of line, in the portable backend.cpp: an inline destructor
  // would be emitted as a weak copy by every SIMD unit (util/inline.hpp).
  virtual ~KernelBackend();

  /// Stable identifier ("scalar", "avx2", "avx512") — recorded in
  /// BENCH_*.json.
  [[nodiscard]] virtual const char* name() const = 0;

  // ------------------------------------------------------------- GEMM ----
  /// C (mb x nb, row stride ldc) += Apanel * Bpanel over packed panels:
  /// Apanel is mb x kb with row i at i*kb (alpha pre-applied by the packer),
  /// Bpanel is kb x nb with row p at p*nb. The k-order per output element is
  /// ascending p for every implementation, which keeps GEMM results
  /// batch-size- and worker-count-invariant.
  virtual void gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                          const double* Bpanel, double* C, size_t ldc) const = 0;

  /// Skinny transposed-B panel over mr <= 16 rows:
  ///   C[i*ldc + j] += sum_p a[i*kb + p] * B[j*ldb + p]
  /// for i < mr, j < nb, p < kb. `a` holds mr packed A rows (alpha
  /// pre-applied, as for gemm_block); B's rows are read in place, contiguous
  /// in k, so a small-batch dense forward never copies or transposes its
  /// weights. Bitwise contract: every output is exactly what gemm_block
  /// computes over the same kb x nb panel of op(B) — a fresh accumulator,
  /// ascending p, the backend's column grouping (the AVX2 and avx512
  /// kernels: fmadd over groups of 4 columns from j = 0, a plain
  /// mul-then-add tail), then C += acc. That order depends on neither mr
  /// nor the row's place in gemm_block's register tile, so math::gemm may
  /// pick either kernel for any row count, and group the rows as it likes,
  /// without changing a bit. The scalar and AVX2 kernels walk the rows in
  /// groups of 4; the avx512 kernel holds 4 to 16 rows in registers and
  /// reads each B panel once per call. The base implementation is the
  /// scalar reference (mul-then-add for every column).
  /// Skipping (this kernel and gemm_nn_block): an implementation may skip
  /// any set of k indices (single inputs, or groups of 4 or 8) whose
  /// entries are ±0 in every one of the rows it serves at once (never one
  /// holding a NaN) and leave their B entries unread; a row that is zero at
  /// an index another row needs runs its fmadd(±0) terms like the packed
  /// path. For finite B, a ±0 term leaves the accumulator equal as a real
  /// number, so the result is still bitwise the unskipped one, except that
  /// a zero output may differ in sign when its C entry is −0 on entry
  /// (math::gemm with beta = 0, hence every dense forward, never passes a
  /// −0 C). With a NaN or Inf in the B entries of a skipped index the
  /// packed path gives NaN and this one may not, so the bitwise claim
  /// covers finite B only. Loaded dense weights are checked finite; the B
  /// of a Conv2D weight gradient (the im2col of the activations) and
  /// weights that change in training are not.
  /// The AVX2 kernel tests each 4-group once per 4-row group: when fewer
  /// than half of the kb / 4 groups are nonzero in some row (a sparse
  /// histogram input), every stream of B rows walks that list of groups and
  /// prefetches the next stream's lines at the listed offsets; denser
  /// blocks re-test each group per stream. The avx512 kernel lists the
  /// 4-groups nonzero in any of its rows once per call, packs those rows'
  /// values per group, and every stream walks the list (prefetching the
  /// next stream's lines when fewer than half are listed). Skipping changes
  /// no bit, so which indices a kernel skips is its own choice.
  virtual void gemm_nt_block(size_t mr, size_t nb, size_t kb, const double* a,
                             const double* B, size_t ldb, double* C, size_t ldc) const;

  /// Skinny non-transposed panel over mr <= 16 rows, B read in place:
  ///   C[i*ldc + j] += sum_p a[i*kb + p] * B[p*ldb + j]
  /// for i < mr, j < nb, p < kb. `a` holds mr packed A rows (alpha
  /// pre-applied, as for gemm_block); B is row-major with n contiguous, the
  /// input-major W^T of a loaded dense layer, so each k index the rows need
  /// is one contiguous run of nb weights. Bitwise contract: every output is
  /// exactly what gemm_nt_block computes over the transposed panel — a
  /// fresh accumulator, ascending p, fmadd on the first nb & ~3 columns
  /// and mul-then-add on the rest in the AVX2 and avx512 kernels
  /// (mul-then-add everywhere in the reference), then C += acc — so
  /// math::gemm gives the same bits whichever order it is handed the
  /// weights in. Any nb is accepted: the column split depends only on nb,
  /// and math::gemm passes runs of whole 64-column tiles. The same skip
  /// rule as gemm_nt_block holds, per single k index: the kernels skip
  /// every p that is ±0 in all the rows they serve at once. One row (a
  /// batch-1 forward) walks each live weight row across the whole width
  /// into an accumulator array; 2 to 16 rows are register-blocked, each
  /// live weight row feeding every row of a group. The base
  /// implementation is the scalar reference, one row at a time.
  virtual void gemm_nn_block(size_t mr, size_t nb, size_t kb, const double* a,
                             const double* B, size_t ldb, double* C, size_t ldc) const;

  /// Quantized inner-product panel, OVERWRITING C (mb x nb, row stride ldc):
  ///   C[i,j] = (a_scales[i] * b_scales[j]) * sum_p Aq[i*kb+p] * Bq[j*kb+p]
  /// Both operands are row-major with k contiguous (Bq is the transposed
  /// layout of gemm_block's RHS) and hold codes in [-127, 127] — never -128,
  /// which the AVX2 abs/sign kernel relies on to rule out maddubs
  /// saturation. The dot products are exact int32 sums (callers bound kb by
  /// kQuantizedGemmMaxDepth) and every implementation dequantizes with this
  /// exact expression, so the int8 path is bitwise identical across
  /// backends, worker counts and batch sizes.
  virtual void gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                         const double* a_scales, const int8_t* Bq,
                         const double* b_scales, double* C, size_t ldc) const = 0;

  /// Int16 sibling of gemm_int8 (same layout, OVERWRITES C): codes are in
  /// [-32767, 32767] — never -32768, so a pairwise int16 madd product fits
  /// int32 exactly (2 * 32767^2 < 2^31) — and the dot products accumulate
  /// in exact int64 (vectorized kernels widen each pairwise int32 before
  /// accumulating). Callers bound kb by kQuantizedGemmInt16MaxDepth, which
  /// also makes the final int64 -> double dequantization cast exact; every
  /// implementation is therefore bitwise identical. The base implementation
  /// is the scalar reference (a plain widened dot).
  virtual void gemm_int16(size_t mb, size_t nb, size_t kb, const int16_t* Aq,
                          const double* a_scales, const int16_t* Bq,
                          const double* b_scales, double* C, size_t ldc) const;

  // -------------------------------------------------------- elementwise ----
  // The nine elementwise kernels below are pure maps. Their bodies are
  // written once (backend_elementwise.hpp); the base implementation is that
  // body compiled for the portable target, and a SIMD backend overrides a
  // kernel only to compile the same body with its own flags, so every
  // backend returns the same bits.

  /// out[r*cols + c] += bias[c] for every row — the dense-layer bias add.
  virtual void add_bias_rows(size_t rows, size_t cols, const double* bias,
                             double* out) const;

  // ------------------------------------------------------- activations ----
  /// y[i] = max(x[i], 0) with the scalar's exact signed-zero behavior.
  virtual void relu_forward(size_t n, const double* x, double* y) const;
  /// gin[i] = y[i] <= 0 ? 0 : gout[i] (y is the cached forward output).
  virtual void relu_backward(size_t n, const double* y, const double* gout,
                             double* gin) const;
  /// xc[i] = x[i] (backward cache); y[i] = x[i] < 0 ? alpha*x[i] : x[i].
  virtual void leaky_relu_forward(size_t n, double alpha, const double* x, double* xc,
                                  double* y) const;
  /// gin[i] = x[i] <= 0 ? alpha*gout[i] : gout[i].
  virtual void leaky_relu_backward(size_t n, double alpha, const double* x,
                                   const double* gout, double* gin) const;
  /// gin[i] = gout[i] * (1 - y[i]*y[i]).
  virtual void tanh_backward(size_t n, const double* y, const double* gout,
                             double* gin) const;

  // --------------------------------------------------------- optimizers ----
  /// w[i] -= lr * g[i].
  virtual void sgd_update(size_t n, double lr, const double* g, double* w) const;
  /// vel[i] = momentum*vel[i] - lr*g[i]; w[i] += vel[i].
  virtual void sgd_momentum_update(size_t n, double lr, double momentum,
                                   const double* g, double* vel, double* w) const;
  /// One Adam element update with precomputed bias corrections bc1/bc2;
  /// operation order matches the scalar reference exactly (bitwise-stable
  /// across backends).
  virtual void adam_update(size_t n, double lr, double beta1, double beta2, double bc1,
                           double bc2, double eps, const double* g, double* m, double* v,
                           double* w) const;

  // -------------------------------------------------------- FFT kernels ----
  // The plan-based FFT (math/fft_plan.hpp) routes its inner loops here.
  // Layout: every buffer is interleaved complex doubles (re at 2i, im at
  // 2i+1); `n` counts complex elements. Bitwise contract: the complex
  // product is computed as re = vr*wr - vi*wi, im = vr*wi + vi*wr with no
  // FP contraction, and the len == 2 butterfly skips the twiddle multiply
  // entirely (both operands of the unit twiddle), so every backend produces
  // bit-identical spectra (tests/nn/test_backend_parity.cpp).

  /// One radix-2 Cooley-Tukey stage over `n` complex elements in place:
  /// for every block of `len`, butterfly (u, v) pairs split at len/2 with
  /// v scaled by tw[k] (interleaved, len/2 entries). len == 2 must skip the
  /// multiply (the twiddle is exactly 1).
  virtual void fft_radix2_pass(size_t n, size_t len, const double* tw,
                               double* data) const;

  /// Two fused radix-2 stages (spans len/2 then len) over `n` complex
  /// elements: 4-point butterflies at strides q = len/4 using three
  /// interleaved twiddle tables of q entries each — twA = tw_{len/2}[0..q),
  /// twB = tw_len[0..q), twC = tw_len[q..2q). Must be bitwise identical to
  /// fft_radix2_pass(len/2) followed by fft_radix2_pass(len) on the same
  /// tables (q == 1 therefore skips the twA multiply like a len == 2 stage).
  virtual void fft_radix4_pass(size_t n, size_t len, const double* twA,
                               const double* twB, const double* twC,
                               double* data) const;

  /// Pointwise complex product out[i] = a[i] * b[i] over n interleaved
  /// complex elements (the Bluestein chirp/convolution multiplies). out may
  /// alias a.
  virtual void cplx_mul(size_t n, const double* a, const double* b,
                        double* out) const;

  // ------------------------------------------------------- PIC kernels ----
  // Shape index matches pic::Shape: 0 = NGP, 1 = CIC, 2 = TSC (kept as an
  // int so this header does not depend on the pic layer). The functions are
  // plain pointers: the PIC drivers fetch them once per call and invoke them
  // from parallel chunk bodies with zero virtual dispatch in the loop.

  /// out[p] = field gathered at x[p]*inv_dx for p in [lo, hi).
  using PicGatherFn = void (*)(const double* E, const double* x, double* out, size_t lo,
                               size_t hi, double inv_dx, long ncells);
  /// v[p] += qm_half_dt * gather(x[p]) for p in [lo, hi) — the half-step
  /// velocity stagger. A non-finite x[p] throws std::invalid_argument
  /// naming p (the particles before it are already done), on every backend
  /// and for the push below as well.
  using PicStaggerFn = void (*)(const double* E, const double* x, double* v, size_t lo,
                                size_t hi, double inv_dx, long ncells, double qm_half_dt);
  /// Fused kick+drift: v[p] += qm_dt*gather(x[p]); x[p] = wrap(x[p]+v[p]*dt)
  /// into [0, length) with pic::wrap_periodic, which leaves in-box positions
  /// untouched and runs the fmod formula only for the others.
  using PicLeapfrogFn = void (*)(const double* E, double* x, double* v, size_t lo,
                                 size_t hi, double inv_dx, long ncells, double qm_dt,
                                 double dt, double length);
  /// buf[stencil nodes of x[p]] += value * weights, scattered in ascending
  /// particle order (callers pass per-worker private buffers; the fixed
  /// scatter order keeps the ordered reduction worker-count-invariant).
  using PicDepositFn = void (*)(double* buf, const double* x, size_t lo, size_t hi,
                                double inv_dx, long ncells, double value);

  [[nodiscard]] virtual PicGatherFn pic_gather(int shape) const = 0;
  [[nodiscard]] virtual PicStaggerFn pic_stagger(int shape) const = 0;
  [[nodiscard]] virtual PicLeapfrogFn pic_leapfrog(int shape) const = 0;
  [[nodiscard]] virtual PicDepositFn pic_deposit(int shape) const = 0;

  // ----------------------------------------------- phase-space binning ----
  /// Geometry of a row-major [nv x nx] phase-space histogram over x in
  /// [0, length) and v in [vmin, vmax]. inv_dx and inv_dv are the caller's
  /// 1 / (length / nx) and 1 / ((vmax - vmin) / nv), so every backend bins
  /// with the same rounded bin widths.
  struct PhaseSpaceGrid {
    size_t nx;
    size_t nv;
    double length;
    double vmin;
    double vmax;
    double inv_dx;
    double inv_dv;
  };

  /// NGP phase-space binning of particles [0, n) into `hist` (nv * nx
  /// entries, not cleared): per particle, x wraps with pic::wrap_periodic,
  /// v outside [vmin, vmax] (±inf included) is clamped to the edge and
  /// counted, and hist[iv * nx + ix] += 1.0 in ascending particle order,
  /// with ix = trunc(x * inv_dx) and iv = trunc((v - vmin) * inv_dv), each
  /// capped at its last bin. Returns the count of clamped particles. A
  /// particle whose v is NaN, or whose wrapped x is not finite, throws
  /// std::invalid_argument naming its index; the particles before it are
  /// already binned. Counts are small integers, so every backend produces
  /// the same histogram and count bit for bit.
  using BinNgpFn = size_t (*)(const PhaseSpaceGrid& grid, const double* x, const double* v,
                              size_t n, double* hist);

  [[nodiscard]] virtual BinNgpFn bin_ngp() const = 0;
};

/// The portable scalar backend (always available).
const KernelBackend& scalar_backend();

/// The AVX2+FMA backend, or nullptr when the build or the CPU lacks it.
const KernelBackend* avx2_backend();

/// The AVX-512 VNNI backend, or nullptr when the build or the CPU lacks
/// AVX512VNNI+BW+VL. It is the AVX2 backend with a zmm skinny f64 GEMM, a
/// zmm PIC push and stagger and a vpdpbusd int8 GEMM, so every other kernel
/// runs the AVX2 code; the skinny kernel and the push keep the AVX2
/// kernels' per-output sequence and the int8 kernel is exact integer
/// arithmetic, so its results are bitwise the AVX2 ones.
const KernelBackend* avx512_backend();

/// Process default resolved once from DLPIC_BACKEND (see file header).
const KernelBackend& default_backend();

/// The calling thread's backend: innermost ScopedBackend override when one
/// is active, otherwise default_backend().
const KernelBackend& active_backend();

/// Looks a backend up by name ("scalar" | "avx2" | "avx512"); nullptr when
/// unknown or unavailable on this host.
const KernelBackend* backend_by_name(const char* name);

/// RAII thread-local backend override (the mechanism behind per-
/// ExecutionContext backend policy). A null pointer is a no-op — the
/// current selection stays active — so callers can plumb "nullptr =
/// inherit" knobs through unconditionally. Nestable.
class ScopedBackend {
 public:
  explicit ScopedBackend(const KernelBackend* backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const KernelBackend* previous_;
};

}  // namespace dlpic::nn
