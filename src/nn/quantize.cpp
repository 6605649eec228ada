#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "util/parallel.hpp"

namespace dlpic::nn {

namespace {

// Output-tile shape of the quantized GEMM driver. Smaller than the f64
// GEMM's blocks: there is no packing pass (both operands are already
// k-contiguous), so the tile only has to bound the working set of integer
// rows touched per task and expose enough tasks for small serving batches.
constexpr size_t kQBlockM = 32;
constexpr size_t kQBlockN = 64;

/// Round to nearest with halves away from zero — std::llround semantics for
/// the |v| <= 2^51 domain every scaled code lives in (|x * inv| <= a few
/// kCodeLimit), but inlineable arithmetic instead of a libm call: the add of
/// +/-0.5 is exact below 2^51, so the truncating cast lands on the llround
/// result independent of the FP rounding environment, which the bitwise-
/// reproducibility contract needs.
template <typename Code>
long long round_code(double v) {
  constexpr long long kLimit = kCodeLimit<Code>;
  long long code = static_cast<long long>(v + (v < 0.0 ? -0.5 : 0.5));
  return std::max(-kLimit, std::min(kLimit, code));
}

/// Quantizes one row with scale `s` (s > 0) into codes clamped to
/// [-kCodeLimit, kCodeLimit]. WithErr additionally returns the codes'
/// round-trip squared error — the precise path's selection metric; the fast
/// path skips it (the hot per-batch / per-image cost in quantized serving).
template <typename Code, bool WithErr>
double quantize_row(const double* x, size_t cols, double s, Code* q) {
  const double inv = 1.0 / s;
  double err = 0.0;
  for (size_t c = 0; c < cols; ++c) {
    const long long code = round_code<Code>(x[c] * inv);
    q[c] = static_cast<Code>(code);
    if constexpr (WithErr) {
      const double d = x[c] - s * static_cast<double>(code);
      err += d * d;
    }
  }
  return err;
}

double row_absmax(const double* x, size_t cols) {
  double m = 0.0;
  for (size_t c = 0; c < cols; ++c) m = std::max(m, std::fabs(x[c]));
  return m;
}

}  // namespace

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kInt8: return "int8";
    case Precision::kInt16: return "int16";
    default: return "f64";
  }
}

Precision precision_from_name(const std::string& name) {
  if (name == "f64") return Precision::kF64;
  if (name == "int8") return Precision::kInt8;
  if (name == "int16") return Precision::kInt16;
  throw std::invalid_argument("precision_from_name: unknown precision '" + name +
                              "' (want f64|int16|int8)");
}

template <typename Code>
void quantize_rows_fast(const double* src, size_t rows, size_t cols, Code* q,
                        double* scales) {
  constexpr long long kLimit = kCodeLimit<Code>;
  for (size_t r = 0; r < rows; ++r) {
    const double* x = src + r * cols;
    Code* qr = q + r * cols;
    const double absmax = row_absmax(x, cols);
    if (absmax == 0.0) {
      scales[r] = 0.0;
      std::memset(qr, 0, cols * sizeof(Code));
      continue;
    }
    const double s = absmax / static_cast<double>(kLimit);
    scales[r] = s;
    (void)quantize_row<Code, false>(x, cols, s, qr);
  }
}

namespace {

/// Candidate scales absmax/kLimit .. absmax/(kLimit - 31) — a finer grid
/// (larger t) trades clipping of the largest entries against resolution for
/// the rest; keep whichever minimizes this row's round-trip error. t =
/// kLimit runs first so the fast path's result is the tie-breaking baseline.
/// Element (r, c) of the matrix is src[r * row_stride + c * col_stride]; a
/// strided row is gathered before it is quantized.
template <typename Code>
void quantize_strided_precise(const double* src, size_t rows, size_t cols,
                              size_t row_stride, size_t col_stride,
                              QuantizedMatrix<Code>& out) {
  constexpr long long kLimit = kCodeLimit<Code>;
  constexpr long long kTMin = kLimit - 31;
  out.rows = rows;
  out.cols = cols;
  out.q.resize(rows * cols);
  out.scales.resize(rows);
  std::vector<Code> trial(cols);
  std::vector<double> gathered(col_stride == 1 ? 0 : cols);
  for (size_t r = 0; r < rows; ++r) {
    const double* x = src + r * row_stride;
    if (col_stride != 1) {
      for (size_t c = 0; c < cols; ++c) gathered[c] = x[c * col_stride];
      x = gathered.data();
    }
    Code* qr = out.q.data() + r * cols;
    const double absmax = row_absmax(x, cols);
    if (absmax == 0.0) {
      out.scales[r] = 0.0;
      std::memset(qr, 0, cols * sizeof(Code));
      continue;
    }
    double best_err = quantize_row<Code, true>(x, cols, absmax / kLimit, qr);
    double best_s = absmax / static_cast<double>(kLimit);
    for (long long t = kLimit - 1; t >= kTMin && best_err > 0.0; --t) {
      const double s = absmax / static_cast<double>(t);
      const double err = quantize_row<Code, true>(x, cols, s, trial.data());
      if (err < best_err) {
        best_err = err;
        best_s = s;
        std::memcpy(qr, trial.data(), cols * sizeof(Code));
      }
    }
    out.scales[r] = best_s;
  }
}

}  // namespace

template <typename Code>
void quantize_rows_precise(const double* src, size_t rows, size_t cols,
                           QuantizedMatrix<Code>& out) {
  quantize_strided_precise(src, rows, cols, cols, 1, out);
}

template <typename Code>
void quantized_gemm(size_t m, size_t n, size_t k, const Code* Aq,
                    const double* a_scales, const Code* Bq, const double* b_scales,
                    double* C, size_t ldc) {
  if (k > kQuantizedDepthBound<Code>)
    throw std::invalid_argument(
        "quantized_gemm: k = " + std::to_string(k) + " exceeds the " +
        (sizeof(Code) == 1 ? "int8" : "int16") + " depth bound " +
        std::to_string(kQuantizedDepthBound<Code>));
  if (m == 0 || n == 0) return;
  // Resolve the backend on the calling thread and capture it: tile bodies
  // run on pool workers, where the thread-local selection is not in scope.
  const KernelBackend* backend = &active_backend();
  const size_t m_blocks = (m + kQBlockM - 1) / kQBlockM;
  const size_t n_blocks = (n + kQBlockN - 1) / kQBlockN;
  util::parallel_for_chunks(
      0, m_blocks * n_blocks,
      [&](size_t tile_lo, size_t tile_hi) {
        for (size_t t = tile_lo; t < tile_hi; ++t) {
          const size_t i0 = (t / n_blocks) * kQBlockM;
          const size_t j0 = (t % n_blocks) * kQBlockN;
          const size_t mb = std::min(kQBlockM, m - i0);
          const size_t nb = std::min(kQBlockN, n - j0);
          if constexpr (sizeof(Code) == 1)
            backend->gemm_int8(mb, nb, k, Aq + i0 * k, a_scales + i0, Bq + j0 * k,
                               b_scales + j0, C + i0 * ldc + j0, ldc);
          else
            backend->gemm_int16(mb, nb, k, Aq + i0 * k, a_scales + i0, Bq + j0 * k,
                                b_scales + j0, C + i0 * ldc + j0, ldc);
        }
      },
      /*grain=*/1);
}

template void quantize_rows_fast<int8_t>(const double*, size_t, size_t, int8_t*, double*);
template void quantize_rows_fast<int16_t>(const double*, size_t, size_t, int16_t*,
                                          double*);
template void quantize_rows_precise<int8_t>(const double*, size_t, size_t,
                                            QuantizedMatrix<int8_t>&);
template void quantize_rows_precise<int16_t>(const double*, size_t, size_t,
                                             QuantizedMatrix<int16_t>&);
template void quantized_gemm<int8_t>(size_t, size_t, size_t, const int8_t*, const double*,
                                     const int8_t*, const double*, double*, size_t);
template void quantized_gemm<int16_t>(size_t, size_t, size_t, const int16_t*,
                                      const double*, const int16_t*, const double*,
                                      double*, size_t);

namespace {

/// Reduction depth of a layer's quantized GEMM, or 0 for layer types whose
/// forward is precision-independent (elementwise / reshaping / pooling).
/// Returns SIZE_MAX for types with no quantized path at all.
size_t quantized_gemm_depth(const Layer& layer) {
  if (const auto* dense = dynamic_cast<const Dense*>(&layer)) return dense->in_features();
  if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
    const Conv2DConfig& c = conv->config();
    return c.in_channels * c.kernel_h * c.kernel_w;
  }
  if (const auto* res = dynamic_cast<const ResidualDense*>(&layer))
    return std::max(res->inner().in_features(), res->outer().in_features());
  const std::string t = layer.type();
  if (t == "relu" || t == "leaky_relu" || t == "tanh" || t == "flatten" ||
      t == "reshape4" || t == "maxpool2d")
    return 0;  // runs on the dequantized f64 activations unchanged
  return SIZE_MAX;
}

}  // namespace

void validate_quantizable(const Sequential& model, Precision precision,
                          const std::string& model_name) {
  if (!is_quantized(precision)) return;
  const size_t bound = precision == Precision::kInt8 ? kQuantizedDepthBound<int8_t>
                                                     : kQuantizedDepthBound<int16_t>;
  for (size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& layer = model.layer(i);
    const size_t depth = quantized_gemm_depth(layer);
    if (depth == SIZE_MAX)
      throw std::invalid_argument(
          "validate_quantizable: model '" + model_name + "' layer " +
          std::to_string(i) + " (" + layer.type() + ") has no " +
          precision_name(precision) + " path");
    if (depth > bound)
      throw std::invalid_argument(
          "validate_quantizable: model '" + model_name + "' layer " +
          std::to_string(i) + " (" + layer.type() + ") has reduction depth " +
          std::to_string(depth) + " exceeding the " + precision_name(precision) +
          " accumulator bound " + std::to_string(bound));
  }
}

QuantizedWeightCache::QuantizedWeightCache(const Sequential& model, Precision precision)
    : precision_(precision) {
  if (!is_quantized(precision))
    throw std::invalid_argument(
        "QuantizedWeightCache: f64 needs no weight cache (use a null cache)");
  // Row r of a weight (one output's weights) is src[r * row_stride + c *
  // col_stride]: contiguous when output-major, a column of an input-major
  // dense layer's W^T.
  const auto add = [&](const Layer& layer, const double* src, size_t nrows, size_t ncols,
                       bool input_major) {
    Entry& entry = entries_[&layer];
    const size_t rs = input_major ? 1 : ncols;
    const size_t cs = input_major ? nrows : 1;
    if (precision == Precision::kInt16)
      quantize_strided_precise(src, nrows, ncols, rs, cs,
                               entry.emplace<QuantizedMatrix<int16_t>>());
    else
      quantize_strided_precise(src, nrows, ncols, rs, cs,
                               entry.emplace<QuantizedMatrix<int8_t>>());
  };
  const auto add_dense = [&](const Dense& d) {
    add(d, d.stored_weight().data(), d.out_features(), d.in_features(), d.input_major());
  };
  for (size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& layer = model.layer(i);
    if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
      add_dense(*dense);
    } else if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
      const Conv2DConfig& c = conv->config();
      add(layer, conv->weight().data(), c.out_channels,
          c.in_channels * c.kernel_h * c.kernel_w, false);
    } else if (const auto* res = dynamic_cast<const ResidualDense*>(&layer)) {
      add_dense(res->inner());
      add_dense(res->outer());
    }
  }
}

template <typename Code>
const QuantizedMatrix<Code>& QuantizedWeightCache::weights(const Layer& layer, size_t rows,
                                                           size_t cols) const {
  const QuantizedMatrix<Code>* entry = find<Code>(&layer);
  if (entry != nullptr && entry->rows == rows && entry->cols == cols) return *entry;
  const std::string what = std::string(precision_name(precision_)) + " weight cache: ";
  if (entry == nullptr)
    throw std::logic_error(what + "no entry for this " + layer.type() +
                           " layer (the cache was built from another model)");
  throw std::logic_error(what + "shape mismatch for this " + layer.type() + " layer (" +
                         std::to_string(entry->rows) + "x" + std::to_string(entry->cols) +
                         " cached, " + std::to_string(rows) + "x" + std::to_string(cols) +
                         " expected)");
}

template const QuantizedMatrix<int8_t>& QuantizedWeightCache::weights<int8_t>(
    const Layer&, size_t, size_t) const;
template const QuantizedMatrix<int16_t>& QuantizedWeightCache::weights<int16_t>(
    const Layer&, size_t, size_t) const;

}  // namespace dlpic::nn
