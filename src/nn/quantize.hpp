#pragma once
/// \file quantize.hpp
/// Per-row symmetric quantization (int8 and int16 tiers) and the quantized
/// GEMM drivers — the reduced-precision inference paths behind the
/// KernelBackend seam.
///
/// Scheme (the dlibx qmat idiom): every row is quantized independently with
/// its own scale s so q[i] = clamp(round(x[i] / s), -Q, Q) and
/// x[i] ~= s * q[i], with Q = 127 for int8 and Q = 32767 for int16. Static
/// operands (layer weights) go through the *precise* path once — a small
/// scale search minimizing the round-trip error — while dynamic operands
/// (activations, im2col columns) use the *fast* path, s = row_absmax / Q,
/// a single pass per row. Every function here is one template over the code
/// type (int8_t or int16_t); only the backend kernels differ per width. The
/// GEMMs accumulate exact integer dot products (int32 for int8 codes, int64
/// for int16 codes) and dequantize with per-row LHS x per-row RHS scales:
///
///   C[i,j] = (a_scales[i] * b_scales[j]) * sum_p Aq[i,p] * Bq[j,p]
///
/// Determinism contract: integer sums are exact and the dequantization
/// expression is fixed, so int8 AND int16 results are bitwise identical
/// across backends, worker counts and batch sizes — a *stronger*
/// reproducibility guarantee than the f64 path (which is bitwise only
/// within one backend). Accuracy versus the f64 reference is a budgeted
/// contract, not bitwise, and int16 sits strictly between f64 and int8 on
/// the accuracy/throughput ladder (tests/nn/test_quantize.cpp pins the
/// bitwise, budget and monotonicity properties).
///
/// Values never reach the type minimum (-128 / -32768): the clamp to
/// [-Q, Q] is what lets the AVX2 kernel use the abs/sign + maddubs trick
/// and the AVX-512 kernel use abs/mask-negate + vpdpbusd without
/// saturation, and keeps every int16 madd pair within int32.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "nn/backend.hpp"

namespace dlpic::nn {

class Layer;
class Sequential;

/// Numeric precision of a QuantizedWeightCache, and so of every Dense/Conv2D
/// forward on an ExecutionContext holding it (kF64: no cache). kF64 is the
/// full-precision reference; the quantized tiers route GEMMs through the
/// integer kernels (inference only). The ladder: f64 (exact, 1x) > int16
/// (tight budget, ~1.5-2x GEMM) > int8 (looser budget, ~2-4x GEMM).
enum class Precision : uint8_t {
  kF64 = 0,   ///< full-precision double GEMM (training + inference)
  kInt8 = 1,  ///< per-row dynamic int8 GEMM (inference only)
  kInt16 = 2, ///< per-row dynamic int16 GEMM (inference only)
};

/// True for the integer inference tiers (kInt8, kInt16).
[[nodiscard]] constexpr bool is_quantized(Precision p) {
  return p != Precision::kF64;
}

/// Stable identifier ("f64", "int8", "int16") — recorded in BENCH_*.json
/// context.
[[nodiscard]] const char* precision_name(Precision p);

/// Parses "f64" | "int8" | "int16"; throws std::invalid_argument on
/// anything else.
[[nodiscard]] Precision precision_from_name(const std::string& name);

/// Largest code magnitude of a quantized tier: 127 for int8_t codes, 32767
/// for int16_t codes. The type minimum is never produced.
template <typename Code>
inline constexpr long long kCodeLimit = std::numeric_limits<Code>::max();

/// Largest GEMM reduction depth the tier with `Code` accepts: the int32
/// accumulator bound for int8 codes, the exact-double bound for int16 codes
/// (see nn/backend.hpp).
template <typename Code>
inline constexpr size_t kQuantizedDepthBound =
    sizeof(Code) == 1 ? kQuantizedGemmMaxDepth : kQuantizedGemmInt16MaxDepth;

/// A row-major code matrix with one dequantization scale per row:
/// original[r][c] ~= scales[r] * q[r * cols + c].
template <typename Code>
struct QuantizedMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<Code> q;         ///< rows * cols codes in [-kCodeLimit, kCodeLimit]
  std::vector<double> scales;  ///< one scale per row (0.0 for all-zero rows)
};

/// Fast per-row quantization (one pass per row, scale = absmax /
/// kCodeLimit<Code>) into caller-provided storage: `q` holds rows*cols
/// codes, `scales` one entry per row. The runtime path for activations and
/// images — callers stage `q` and `scales` in grow-only workspace scratch
/// so steady state allocates nothing. An all-zero row quantizes to scale 0
/// with all-zero codes. Instantiated for int8_t and int16_t.
template <typename Code>
void quantize_rows_fast(const double* src, size_t rows, size_t cols, Code* q,
                        double* scales);

/// Precise per-row quantization: searches the candidate scales absmax / t
/// for the 32 values of t just below and at kCodeLimit<Code> and keeps the
/// one minimizing the row's round-trip squared error. ~30x the cost of the
/// fast path — meant for static weights, quantized once when a
/// QuantizedWeightCache is built.
template <typename Code>
void quantize_rows_precise(const double* src, size_t rows, size_t cols,
                           QuantizedMatrix<Code>& out);

/// C (m x n, row stride ldc, overwritten) = diag(a_scales) (Aq Bq^T)
/// diag(b_scales): Aq is m x k row-major, Bq is n x k row-major (both
/// k-contiguous, so no packing pass is needed), C[i,j] dequantizes the exact
/// integer dot product of Aq row i and Bq row j (int32 sums for int8 codes
/// through KernelBackend::gemm_int8, int64 sums for int16 codes through
/// gemm_int16). Parallel over 2D output tiles with the backend captured on
/// the calling thread (same dispatch shape as math::gemm); every tile is
/// owned by one task and the sums are exact, so the result is bitwise
/// invariant under the worker count AND the backend. Throws
/// std::invalid_argument when k > kQuantizedDepthBound<Code>.
template <typename Code>
void quantized_gemm(size_t m, size_t n, size_t k, const Code* Aq,
                    const double* a_scales, const Code* Bq, const double* b_scales,
                    double* C, size_t ldc);

/// Throws std::invalid_argument when `model` cannot run at `precision`:
/// a GEMM-bearing layer (dense / conv2d / residual_dense) whose reduction
/// depth exceeds the precision's accumulator bound, or a layer type with
/// neither a quantized GEMM path nor a precision-independent forward. The
/// message names `model_name`, the offending layer (index + type) and the
/// violated bound. kF64 accepts every model. ModelRegistry::add calls this
/// so misconfigured bundles fail at registration, not mid-batch.
void validate_quantizable(const Sequential& model, Precision precision,
                          const std::string& model_name);

/// Precise-path quantizations of one model's GEMM weights at one quantized
/// precision, keyed by layer address (the `const Layer*`). Setting a cache
/// on an ExecutionContext is what makes that context quantized: its
/// precision() is the cache's, and every Dense/Conv2D forward on it takes
/// its weight codes from here. Built once (the registry does this at add()) and read
/// lock-free by any number of threads; immutable after construction.
class QuantizedWeightCache {
 public:
  /// Precise-quantizes every GEMM weight matrix of `model` — each Dense,
  /// each Conv2D filter matrix ([oc, ic*kh*kw], already k-contiguous), and
  /// the dense pair inside each ResidualDense block — at `precision`'s code
  /// width. Read-only on the model. Throws std::invalid_argument for kF64
  /// (f64 inference is a context without a cache).
  QuantizedWeightCache(const Sequential& model, Precision precision);

  /// The precision (kInt8 or kInt16) every entry was built at.
  [[nodiscard]] Precision precision() const { return precision_; }

  /// The entry for the layer at `key`, or nullptr when the cache holds no
  /// such layer or holds it at the other code width.
  template <typename Code>
  [[nodiscard]] const QuantizedMatrix<Code>* find(const void* key) const {
    const auto it = entries_.find(key);
    return it != entries_.end() ? std::get_if<QuantizedMatrix<Code>>(&it->second)
                                : nullptr;
  }

  /// The weight codes of `layer`, checked to be `rows` x `cols` — what a
  /// quantized layer forward runs with. Throws std::logic_error naming the
  /// layer type when the cache has no entry for `layer` at this width (it
  /// was built from another model) or the entry has another shape.
  template <typename Code>
  [[nodiscard]] const QuantizedMatrix<Code>& weights(const Layer& layer, size_t rows,
                                                     size_t cols) const;

  [[nodiscard]] size_t size() const { return entries_.size(); }

 private:
  using Entry = std::variant<QuantizedMatrix<int8_t>, QuantizedMatrix<int16_t>>;
  Precision precision_;
  std::unordered_map<const void*, Entry> entries_;
};

}  // namespace dlpic::nn
