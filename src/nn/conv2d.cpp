#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "math/linalg.hpp"
#include "nn/init.hpp"
#include "nn/quantize.hpp"
#include "util/parallel.hpp"

namespace dlpic::nn {

namespace {
// Workspace slot ids.
constexpr int kSlotInput = 0;
constexpr int kSlotOut = 1;
constexpr int kSlotGradIn = 2;
constexpr int kSlotCols = 3;    // per-worker im2col columns (f64 staging too)
constexpr int kSlotDcols = 4;   // per-worker dY-columns
constexpr int kSlotDw = 5;      // per-image weight-grad contributions
constexpr int kSlotDb = 6;      // per-image bias-grad contributions
// Quantized-path staging (int8 and int16 share ids: the code maps are
// per-width, and every f64 scale buffer is fully rewritten each call).
constexpr int kSlotQCols = 7;       // per-worker lowered column codes
constexpr int kSlotQColScale = 8;   // per-worker per-pixel column scales
constexpr int kSlotQImg = 9;        // per-worker quantized input image

/// Shared traversal of the transposed lowering — see im2col_rows for the
/// layout contract. Templated over the element type so the quantized path
/// lowers already-quantized int8/int16 images (byte-width staging traffic)
/// through exactly the index math the f64 instantiation is tested with.
/// First oj with a valid source column (oj * stride + kj - pad >= 0) and
/// one past the last (…< w), both clamped to [0, out_w]: the horizontal
/// bounds checks of the lowering loops hoist into this split so the middle
/// span runs branch-free.
inline std::pair<size_t, size_t> valid_oj_span(size_t out_w, size_t w, size_t kj,
                                               size_t stride, size_t pad) {
  const long off = static_cast<long>(kj) - static_cast<long>(pad);
  const long s = static_cast<long>(stride);
  long lo = off < 0 ? (-off + s - 1) / s : 0;
  long hi = (static_cast<long>(w) - off + s - 1) / s;
  lo = std::min(std::max(lo, 0L), static_cast<long>(out_w));
  hi = std::min(std::max(hi, lo), static_cast<long>(out_w));
  return {static_cast<size_t>(lo), static_cast<size_t>(hi)};
}

/// Per-worker headroom (in elements) the pixel-major fast lowering needs
/// past each column buffer's logical end — see lower_rows_s1k3.
constexpr size_t kLowerPad = 4;

/// Pixel-major fast lowering for the stride-1, 3-wide-kernel case (the
/// paper's CNN is all 3x3 same-padding convolutions). The generic
/// lower_rows walks (c, ki, kj)-major, so its stores stride by krows —
/// measured ~2.5x slower than the contiguous-store f64 im2col at the
/// serving shape even though it moves 8x fewer bytes. Here the traversal
/// is inverted: one k-contiguous destination row is assembled per output
/// pixel, so every store is sequential and each interior (c, ki) group is
/// one fixed-size 4-element copy (the 3 taps plus one overstored element
/// that the next group rewrites). The overstore means each worker's buffer
/// needs kLowerPad elements of headroom past its last pixel row;
/// forward_quantized sizes the scratch accordingly.
template <typename T>
void lower_rows_s1k3(const T* img, size_t channels, size_t h, size_t w, size_t kh,
                     size_t pad, T* rows) {
  constexpr size_t kw = 3;
  const size_t out_h = h + 2 * pad - kh + 1;
  const size_t out_w = w + 2 * pad - kw + 1;
  const size_t krows = channels * kh * kw;
  T* dst = rows;
  for (size_t oi = 0; oi < out_h; ++oi) {
    const long ii0 = static_cast<long>(oi) - static_cast<long>(pad);
    for (size_t oj = 0; oj < out_w; ++oj, dst += krows) {
      const long jj0 = static_cast<long>(oj) - static_cast<long>(pad);
      // All four elements of the group copy (taps jj0..jj0+2 plus the
      // overread at jj0+3) in bounds: the interior fast case.
      const bool inner = jj0 >= 0 && jj0 + static_cast<long>(kw) < static_cast<long>(w);
      T* d = dst;
      const T* plane_base = img;
      for (size_t c = 0; c < channels; ++c, plane_base += h * w) {
        for (size_t ki = 0; ki < kh; ++ki, d += kw) {
          const long ii = ii0 + static_cast<long>(ki);
          if (ii < 0 || ii >= static_cast<long>(h)) {
            std::memset(d, 0, kw * sizeof(T));
            continue;
          }
          if (inner) {
            std::memcpy(d, plane_base + static_cast<size_t>(ii) * w + jj0,
                        (kw + 1) * sizeof(T));
            continue;
          }
          for (size_t kj = 0; kj < kw; ++kj) {
            const long jj = jj0 + static_cast<long>(kj);
            d[kj] = (jj < 0 || jj >= static_cast<long>(w))
                        ? T(0)
                        : plane_base[static_cast<size_t>(ii) * w + jj];
          }
        }
      }
    }
  }
}

template <typename T>
void lower_rows(const T* img, size_t channels, size_t h, size_t w, size_t kh, size_t kw,
                size_t stride, size_t pad, T* rows) {
  const size_t out_h = (h + 2 * pad - kh) / stride + 1;
  const size_t out_w = (w + 2 * pad - kw) / stride + 1;
  const size_t krows = channels * kh * kw;
  // Same traversal as im2col, strided writes: element (pixel, row) lands at
  // rows[pixel * krows + row], so each output pixel's patch is k-contiguous.
  size_t row = 0;
  for (size_t c = 0; c < channels; ++c) {
    for (size_t ki = 0; ki < kh; ++ki) {
      for (size_t kj = 0; kj < kw; ++kj, ++row) {
        const auto [jlo, jhi] = valid_oj_span(out_w, w, kj, stride, pad);
        for (size_t oi = 0; oi < out_h; ++oi) {
          T* dst = rows + (oi * out_w) * krows + row;
          const long ii = static_cast<long>(oi * stride + ki) - static_cast<long>(pad);
          if (ii < 0 || ii >= static_cast<long>(h)) {
            for (size_t oj = 0; oj < out_w; ++oj) dst[oj * krows] = T(0);
            continue;
          }
          const T* src_row = img + (c * h + static_cast<size_t>(ii)) * w;
          const long off = static_cast<long>(kj) - static_cast<long>(pad);
          for (size_t oj = 0; oj < jlo; ++oj) dst[oj * krows] = T(0);
          for (size_t oj = jlo; oj < jhi; ++oj)
            dst[oj * krows] = src_row[static_cast<long>(oj * stride) + off];
          for (size_t oj = jhi; oj < out_w; ++oj) dst[oj * krows] = T(0);
        }
      }
    }
  }
}
}  // namespace

void im2col(const double* img, size_t channels, size_t h, size_t w, size_t kh, size_t kw,
            size_t stride, size_t pad, double* cols) {
  const size_t out_h = (h + 2 * pad - kh) / stride + 1;
  const size_t out_w = (w + 2 * pad - kw) / stride + 1;
  const size_t plane = out_h * out_w;
  size_t row = 0;
  for (size_t c = 0; c < channels; ++c) {
    for (size_t ki = 0; ki < kh; ++ki) {
      for (size_t kj = 0; kj < kw; ++kj, ++row) {
        double* dst = cols + row * plane;
        const auto [jlo, jhi] = valid_oj_span(out_w, w, kj, stride, pad);
        const long off = static_cast<long>(kj) - static_cast<long>(pad);
        for (size_t oi = 0; oi < out_h; ++oi) {
          const long ii = static_cast<long>(oi * stride + ki) - static_cast<long>(pad);
          if (ii < 0 || ii >= static_cast<long>(h)) {
            std::memset(dst + oi * out_w, 0, out_w * sizeof(double));
            continue;
          }
          const double* src_row = img + (c * h + static_cast<size_t>(ii)) * w;
          double* drow = dst + oi * out_w;
          for (size_t oj = 0; oj < jlo; ++oj) drow[oj] = 0.0;
          for (size_t oj = jlo; oj < jhi; ++oj)
            drow[oj] = src_row[static_cast<long>(oj * stride) + off];
          for (size_t oj = jhi; oj < out_w; ++oj) drow[oj] = 0.0;
        }
      }
    }
  }
}

void col2im(const double* cols, size_t channels, size_t h, size_t w, size_t kh, size_t kw,
            size_t stride, size_t pad, double* img) {
  const size_t out_h = (h + 2 * pad - kh) / stride + 1;
  const size_t out_w = (w + 2 * pad - kw) / stride + 1;
  const size_t plane = out_h * out_w;
  size_t row = 0;
  for (size_t c = 0; c < channels; ++c) {
    for (size_t ki = 0; ki < kh; ++ki) {
      for (size_t kj = 0; kj < kw; ++kj, ++row) {
        const double* src = cols + row * plane;
        for (size_t oi = 0; oi < out_h; ++oi) {
          const long ii = static_cast<long>(oi * stride + ki) - static_cast<long>(pad);
          if (ii < 0 || ii >= static_cast<long>(h)) continue;
          double* dst_row = img + (c * h + static_cast<size_t>(ii)) * w;
          for (size_t oj = 0; oj < out_w; ++oj) {
            const long jj = static_cast<long>(oj * stride + kj) - static_cast<long>(pad);
            if (jj < 0 || jj >= static_cast<long>(w)) continue;
            dst_row[jj] += src[oi * out_w + oj];
          }
        }
      }
    }
  }
}

void im2col_rows(const double* img, size_t channels, size_t h, size_t w, size_t kh,
                 size_t kw, size_t stride, size_t pad, double* rows) {
  lower_rows<double>(img, channels, h, w, kh, kw, stride, pad, rows);
}

Conv2D::Conv2D(const Conv2DConfig& config)
    : Conv2D(config,
             Tensor({config.out_channels,
                     config.in_channels * config.kernel_h * config.kernel_w}),
             Tensor({config.out_channels})) {}

Conv2D::Conv2D(const Conv2DConfig& config, Tensor weight, Tensor bias)
    : cfg_(config), weight_(std::move(weight)), bias_(std::move(bias)) {
  if (cfg_.in_channels == 0 || cfg_.out_channels == 0 || cfg_.kernel_h == 0 ||
      cfg_.kernel_w == 0 || cfg_.stride == 0)
    throw std::invalid_argument("Conv2D: zero-sized configuration");
}

void Conv2D::ensure_grads() {
  if (!weight_grad_.empty()) return;
  weight_grad_ = Tensor(weight_.shape());
  bias_grad_ = Tensor(bias_.shape());
}

Conv2D::Conv2D(const Conv2DConfig& config, math::Rng& rng) : Conv2D(config) {
  init_he_normal(weight_, cfg_.in_channels * cfg_.kernel_h * cfg_.kernel_w, rng);
  init_constant(bias_, 0.0);
}

std::pair<size_t, size_t> Conv2D::out_dims(size_t h, size_t w) const {
  if (h + 2 * cfg_.pad < cfg_.kernel_h || w + 2 * cfg_.pad < cfg_.kernel_w)
    throw std::invalid_argument("Conv2D: input smaller than kernel");
  return {(h + 2 * cfg_.pad - cfg_.kernel_h) / cfg_.stride + 1,
          (w + 2 * cfg_.pad - cfg_.kernel_w) / cfg_.stride + 1};
}

Tensor& Conv2D::forward(ExecutionContext& ctx, const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != cfg_.in_channels)
    throw std::invalid_argument("Conv2D::forward: expected [n, " +
                                std::to_string(cfg_.in_channels) + ", h, w], got " +
                                input.shape_string());
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  const KernelBackend* be = &ctx.resolved_backend();
  const size_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const auto [oh, ow] = out_dims(h, w);
  const size_t krows = cfg_.in_channels * cfg_.kernel_h * cfg_.kernel_w;
  const size_t plane = oh * ow;

  if (const QuantizedWeightCache* cache = ctx.quantized_weights()) {
    if (training)
      throw std::invalid_argument(
          std::string("Conv2D::forward: ") + precision_name(cache->precision()) +
          " precision is inference-only (train at kF64)");
    Tensor& out = ctx.workspace().tensor(this, kSlotOut, {n, cfg_.out_channels, oh, ow});
    if (cache->precision() == Precision::kInt8)
      forward_quantized<int8_t>(ctx, input, out, h, w, oh, ow);
    else
      forward_quantized<int16_t>(ctx, input, out, h, w, oh, ow);
    ctx.workspace().tensor(this, kSlotInput, {});
    return out;
  }

  // Training caches the input for backward; inference reads it in place and
  // leaves the slot empty (rank 0, storage kept), so a backward after it
  // throws instead of reading an older batch.
  const double* x = input.data();
  if (training) {
    Tensor& xc = ctx.workspace().tensor(this, kSlotInput, {n, cfg_.in_channels, h, w});
    detail::parallel_copy(input.data(), xc.data(), input.size());
    x = xc.data();
  } else {
    ctx.workspace().tensor(this, kSlotInput, {});
  }
  Tensor& out = ctx.workspace().tensor(this, kSlotOut, {n, cfg_.out_channels, oh, ow});

  // Parallelize over images: each worker lowers its images into a private
  // im2col buffer and runs an independent GEMM into the image's disjoint
  // output slice (GEMMs nested under a parallel region degrade to serial).
  const size_t nworkers = util::worker_partition_count(n, 1);
  auto& cols = ctx.workspace().scratch(this, kSlotCols, nworkers * krows * plane);
  util::parallel_for_workers(0, n, [&](size_t worker, size_t lo, size_t hi) {
    // Chunks run on pool threads: re-pin the context's backend there so the
    // nested (serial) per-image GEMMs dispatch through it too.
    ScopedBackend worker_backend(be);
    double* mycols = cols.data() + worker * krows * plane;
    for (size_t b = lo; b < hi; ++b) {
      im2col(x + b * cfg_.in_channels * h * w, cfg_.in_channels, h, w,
             cfg_.kernel_h, cfg_.kernel_w, cfg_.stride, cfg_.pad, mycols);
      // out[b] = W (oc x krows) * cols (krows x plane).
      math::gemm(false, false, cfg_.out_channels, plane, krows, 1.0, weight_.data(), krows,
                 mycols, plane, 0.0, out.data() + b * cfg_.out_channels * plane, plane);
      for (size_t oc = 0; oc < cfg_.out_channels; ++oc) {
        double* dst = out.data() + (b * cfg_.out_channels + oc) * plane;
        const double bv = bias_[oc];
        for (size_t i = 0; i < plane; ++i) dst[i] += bv;
      }
    }
  });
  return out;
}

template <typename Code>
void Conv2D::forward_quantized(ExecutionContext& ctx, const Tensor& input, Tensor& out,
                               size_t h, size_t w, size_t oh, size_t ow) {
  const size_t n = input.dim(0);
  const size_t krows = cfg_.in_channels * cfg_.kernel_h * cfg_.kernel_w;
  const size_t plane = oh * ow;
  Workspace& ws = ctx.workspace();

  // Check the GEMM depth bound up front so a violation throws here, on the
  // caller's thread, rather than inside a pool task. Serving rejects such
  // models at registration (validate_quantizable); this is the backstop for
  // direct context users.
  if (krows > kQuantizedDepthBound<Code>)
    throw std::invalid_argument("Conv2D::forward: patch depth " + std::to_string(krows) +
                                " exceeds the quantized GEMM bound " +
                                std::to_string(kQuantizedDepthBound<Code>));

  // Precise filter codes from the cache: [oc, ic*kh*kw] row-major,
  // k-contiguous rows.
  const QuantizedMatrix<Code>& wq =
      ctx.quantized_weights()->weights<Code>(*this, cfg_.out_channels, krows);

  // Dynamic side, parallel over images exactly like the f64 path. Each
  // worker fast-quantizes its whole image once — symmetric, one shared
  // scale per image; the patch rows all draw from the same activation
  // image, so the per-image absmax is within a hair of every per-patch
  // absmax and costs almost no accuracy (the precision-ladder tests bound
  // it) — then lowers the CODES into a private transposed-column buffer
  // ([plane, krows], k-contiguous pixel rows). Quantize-then-lower touches
  // each input element once at full width and moves only code-width bytes
  // through the 9x-duplicating lowering, which is what makes the int8 path
  // faster than the f64 forward instead of quantization-bound. One image =
  // one task with fixed inner order and exact integer sums, so the output
  // is bitwise invariant across backends, worker counts, and batch
  // compositions.
  const size_t chw = cfg_.in_channels * h * w;
  const KernelBackend* be = &ctx.resolved_backend();
  const size_t nworkers = util::worker_partition_count(n, 1);
  const bool fast_lower = cfg_.stride == 1 && cfg_.kernel_w == 3;
  // Per-worker column stride includes kLowerPad headroom so the fast
  // lowering's one-element group overstore never crosses into the next
  // worker's segment (which would race with that worker's own writes).
  const size_t colstride = plane * krows + kLowerPad;
  std::vector<Code>& qimg = ws.scratch<Code>(this, kSlotQImg, nworkers * chw);
  std::vector<Code>& qcols = ws.scratch<Code>(this, kSlotQCols, nworkers * colstride);
  std::vector<double>& qscales = ws.scratch(this, kSlotQColScale, nworkers * plane);
  util::parallel_for_workers(0, n, [&](size_t worker, size_t lo, size_t hi) {
    ScopedBackend worker_backend(be);
    Code* myimg = qimg.data() + worker * chw;
    Code* mycodes = qcols.data() + worker * colstride;
    double* myscales = qscales.data() + worker * plane;
    for (size_t b = lo; b < hi; ++b) {
      double img_scale = 0.0;
      quantize_rows_fast(input.data() + b * chw, 1, chw, myimg, &img_scale);
      if (fast_lower)
        lower_rows_s1k3<Code>(myimg, cfg_.in_channels, h, w, cfg_.kernel_h, cfg_.pad,
                              mycodes);
      else
        lower_rows<Code>(myimg, cfg_.in_channels, h, w, cfg_.kernel_h, cfg_.kernel_w,
                         cfg_.stride, cfg_.pad, mycodes);
      std::fill(myscales, myscales + plane, img_scale);
      double* dst = out.data() + b * cfg_.out_channels * plane;
      // out[b] (oc x plane) = Wq (oc x krows) x colsq^T — the quantized GEMM
      // nested under this parallel region degrades to serial, like math::gemm.
      quantized_gemm(cfg_.out_channels, plane, krows, wq.q.data(), wq.scales.data(),
                     mycodes, myscales, dst, plane);
      for (size_t oc = 0; oc < cfg_.out_channels; ++oc) {
        double* drow = dst + oc * plane;
        const double bv = bias_[oc];
        for (size_t i = 0; i < plane; ++i) drow[i] += bv;
      }
    }
  });
}

Tensor& Conv2D::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  // The cached input in the context is the only forward state (layers keep
  // no per-call members, so one model may serve many contexts).
  Tensor& xc = ctx.workspace().peek(this, kSlotInput);
  if (xc.rank() != 4 || xc.dim(1) != cfg_.in_channels)
    throw std::runtime_error("Conv2D::backward without a training forward");
  const size_t n = xc.dim(0), h = xc.dim(2), w = xc.dim(3);
  const auto [oh, ow] = out_dims(h, w);
  if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
      grad_output.dim(1) != cfg_.out_channels || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow)
    throw std::invalid_argument("Conv2D::backward: grad shape mismatch " +
                                grad_output.shape_string());
  util::ScopedWorkerCap cap(ctx.worker_cap());
  ScopedBackend backend_scope(ctx.backend());
  const KernelBackend* be = &ctx.resolved_backend();

  ensure_grads();

  const size_t krows = cfg_.in_channels * cfg_.kernel_h * cfg_.kernel_w;
  const size_t plane = oh * ow;
  const size_t wsize = cfg_.out_channels * krows;
  Tensor& grad_in = ctx.workspace().tensor(this, kSlotGradIn, {n, cfg_.in_channels, h, w});

  // Phase 1 (parallel over images): per-image dW/db contributions into
  // per-image buffers and the input gradient into the image's disjoint
  // slice. Every image's result is computed by one task with fixed inner
  // order, so the phase is bitwise independent of the worker count.
  const size_t nworkers = util::worker_partition_count(n, 1);
  auto& cols = ctx.workspace().scratch(this, kSlotCols, nworkers * krows * plane);
  auto& dcols = ctx.workspace().scratch(this, kSlotDcols, nworkers * krows * plane);
  auto& dwbuf = ctx.workspace().scratch(this, kSlotDw, n * wsize);
  auto& dbbuf = ctx.workspace().scratch(this, kSlotDb, n * cfg_.out_channels);
  util::parallel_for_workers(0, n, [&](size_t worker, size_t lo, size_t hi) {
    ScopedBackend worker_backend(be);
    double* mycols = cols.data() + worker * krows * plane;
    double* mydcols = dcols.data() + worker * krows * plane;
    for (size_t b = lo; b < hi; ++b) {
      const double* gout = grad_output.data() + b * cfg_.out_channels * plane;
      // dW_b = gout (oc x plane) * cols^T (plane x krows).
      im2col(xc.data() + b * cfg_.in_channels * h * w, cfg_.in_channels, h, w,
             cfg_.kernel_h, cfg_.kernel_w, cfg_.stride, cfg_.pad, mycols);
      math::gemm(false, true, cfg_.out_channels, krows, plane, 1.0, gout, plane, mycols,
                 plane, 0.0, dwbuf.data() + b * wsize, krows);
      // db_b = row sums of gout.
      for (size_t oc = 0; oc < cfg_.out_channels; ++oc) {
        double acc = 0.0;
        const double* src = gout + oc * plane;
        for (size_t i = 0; i < plane; ++i) acc += src[i];
        dbbuf[b * cfg_.out_channels + oc] = acc;
      }
      // dcols = W^T (krows x oc) * gout (oc x plane); scatter with col2im.
      math::gemm(true, false, krows, plane, cfg_.out_channels, 1.0, weight_.data(), krows,
                 gout, plane, 0.0, mydcols, plane);
      double* gin = grad_in.data() + b * cfg_.in_channels * h * w;
      std::memset(gin, 0, cfg_.in_channels * h * w * sizeof(double));
      col2im(mydcols, cfg_.in_channels, h, w, cfg_.kernel_h, cfg_.kernel_w, cfg_.stride,
             cfg_.pad, gin);
    }
  });

  // Phase 2: reduce the per-image contributions in fixed image order
  // (parallel over gradient elements), keeping dW/db bitwise reproducible
  // for any worker count.
  double* wg = weight_grad_.data();
  util::parallel_for_chunks(
      0, wsize,
      [&](size_t lo, size_t hi) {
        for (size_t j = lo; j < hi; ++j) {
          double acc = wg[j];
          for (size_t b = 0; b < n; ++b) acc += dwbuf[b * wsize + j];
          wg[j] = acc;
        }
      },
      detail::kElemGrain / std::max<size_t>(1, n));
  double* bg = bias_grad_.data();
  for (size_t oc = 0; oc < cfg_.out_channels; ++oc) {
    double acc = bg[oc];
    for (size_t b = 0; b < n; ++b) acc += dbbuf[b * cfg_.out_channels + oc];
    bg[oc] = acc;
  }
  return grad_in;
}

std::vector<Param> Conv2D::params() {
  ensure_grads();
  return {{&weight_, &weight_grad_, "weight"}, {&bias_, &bias_grad_, "bias"}};
}

std::vector<size_t> Conv2D::output_shape(const std::vector<size_t>& input_shape) const {
  if (input_shape.size() != 4 || input_shape[1] != cfg_.in_channels)
    throw std::invalid_argument("Conv2D::output_shape: incompatible input shape");
  const auto [oh, ow] = out_dims(input_shape[2], input_shape[3]);
  return {input_shape[0], cfg_.out_channels, oh, ow};
}

void Conv2D::save(util::BinaryWriter& w) const {
  w.write_u64(cfg_.in_channels);
  w.write_u64(cfg_.out_channels);
  w.write_u64(cfg_.kernel_h);
  w.write_u64(cfg_.kernel_w);
  w.write_u64(cfg_.stride);
  w.write_u64(cfg_.pad);
  w.write_f64_vector(weight_.vec());
  w.write_f64_vector(bias_.vec());
}

std::unique_ptr<Conv2D> Conv2D::load(util::BinaryReader& r) {
  Conv2DConfig cfg;
  cfg.in_channels = r.read_u64();
  cfg.out_channels = r.read_u64();
  cfg.kernel_h = r.read_u64();
  cfg.kernel_w = r.read_u64();
  cfg.stride = r.read_u64();
  cfg.pad = r.read_u64();
  auto wv = detail::read_param(
      r, {cfg.out_channels, cfg.in_channels, cfg.kernel_h, cfg.kernel_w}, "Conv2D::load");
  // read_param checked the full product, so this one cannot overflow (a
  // zero out_channels is rejected by the constructor).
  Tensor weight({cfg.out_channels, cfg.in_channels * cfg.kernel_h * cfg.kernel_w},
                std::move(wv));
  Tensor bias({cfg.out_channels}, detail::read_param(r, {cfg.out_channels}, "Conv2D::load"));
  return std::unique_ptr<Conv2D>(new Conv2D(cfg, std::move(weight), std::move(bias)));
}

}  // namespace dlpic::nn
