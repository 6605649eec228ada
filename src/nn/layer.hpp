#pragma once
/// \file layer.hpp
/// Abstract layer interface for the backprop engine.
///
/// Contract: forward() caches whatever backward() needs in the execution
/// context's workspace; backward() consumes the gradient w.r.t. the layer
/// output and returns the gradient w.r.t. the layer input while accumulating
/// parameter gradients (call zero_grad() between optimizer steps). The
/// returned tensor references workspace storage owned by the context: it
/// stays valid until the next forward/backward call of the same layer on
/// that context. forward() and the matching backward() must use the same
/// context. Parameters are shared; activation state lives in the context,
/// so one model instance may serve several threads as long as each thread
/// brings its own ExecutionContext (inference) and only one thread trains.

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "nn/execution_context.hpp"
#include "nn/tensor.hpp"
#include "util/binary_io.hpp"

namespace dlpic::nn {

/// A learnable parameter: value and accumulated gradient (same shape).
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;  ///< e.g. "dense0.weight" (set by Sequential)
};

/// Base class of every network layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output into workspace storage. `training` toggles
  /// train-only behavior (e.g. dropout); inference passes false. Inner
  /// loops dispatch through dlpic::util parallel_for under the context's
  /// worker cap.
  virtual Tensor& forward(ExecutionContext& ctx, const Tensor& input, bool training) = 0;

  /// Backpropagates: grad w.r.t. output -> grad w.r.t. input, accumulating
  /// parameter gradients. Must be called after forward() on the same
  /// context. Parameter-gradient reductions are ordered independently of
  /// the worker count, so results are bitwise reproducible across widths.
  virtual Tensor& backward(ExecutionContext& ctx, const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for activations/pooling).
  virtual std::vector<Param> params() { return {}; }

  /// Layer type tag used by serialization ("dense", "relu", ...).
  [[nodiscard]] virtual std::string type() const = 0;

  /// Output shape for a given input shape (throws on incompatible input).
  [[nodiscard]] virtual std::vector<size_t> output_shape(
      const std::vector<size_t>& input_shape) const = 0;

  /// Serializes layer hyperparameters + parameters.
  virtual void save(util::BinaryWriter& w) const = 0;

  /// Zeroes accumulated parameter gradients. Parameterized layers override
  /// with a direct member zero so the per-batch call is allocation-free
  /// (the default builds the params() list).
  virtual void zero_grad() {
    for (auto& p : params()) p.grad->zero();
  }

  /// Learnable scalar count, from the values alone: unlike params(), it
  /// never creates gradient storage.
  [[nodiscard]] virtual size_t parameter_count() const { return 0; }
};

/// Model file format Sequential::save writes and Dense::load reads by
/// default: v2 stores each Dense weight input-major (W^T [in, out]); v1
/// stored it output-major (W [out, in]) and still loads. The record layout
/// and byte count are the same in both.
inline constexpr uint32_t kModelFormat = 2;
inline constexpr uint32_t kModelFormatOutputMajor = 1;

namespace detail {

/// Elementwise copy src -> dst (same size) parallelized under the current
/// worker width; the grain keeps small tensors serial.
void parallel_copy(const double* src, double* dst, size_t n);

/// Shared grain for elementwise layer loops (elements per task).
constexpr size_t kElemGrain = 1 << 14;

/// Reads one parameter tensor's values for a layer loader: a length-prefixed
/// f64 vector, bounded by the reader's max_alloc before it is allocated.
/// The header dimensions `dims` are only compared against the length read
/// (overflow-safe), never allocated from. Throws std::runtime_error
/// ("<what>: parameter size mismatch") on a length that is not their
/// product, and ("<what>: non-finite parameter") unless every value is
/// finite: the skinny dense kernel's zero-group skip is exact only for
/// finite weights.
std::vector<double> read_param(util::BinaryReader& r, std::initializer_list<size_t> dims,
                               const char* what);

}  // namespace detail

}  // namespace dlpic::nn
