#pragma once
/// \file execution_context.hpp
/// Per-run execution state threaded through the training-side stack: a
/// workspace arena of reusable tensors/scratch buffers and the parallelism
/// policy (worker cap) the layer kernels dispatch under.
///
/// Lifetime rules:
///  - A workspace buffer returned by Workspace::tensor/scratch/indices stays
///    valid and stable until the same (owner, slot) key is re-acquired with a
///    larger volume or the workspace is cleared. Buffers only grow, so in
///    steady state (fixed batch shape) every acquisition is allocation-free.
///  - Layer::forward caches activations in the context; the matching
///    Layer::backward MUST run on the same context.
///  - One context per training/inference thread. Contexts are not
///    thread-safe; the parallelism *inside* a context (layer kernels fanning
///    out over the pool) is.
///
/// Nested-parallelism policy: a context constructed with worker_cap = 1 is a
/// serial context — every layer kernel and GEMM it dispatches runs inline.
/// Combined with util::ScopedSerialExecution this is how outer-level
/// parallelism (independent dataset-generation runs) composes with the
/// parallel layer kernels without oversubscription.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "nn/backend.hpp"
#include "nn/quantize.hpp"
#include "nn/tensor.hpp"
#include "util/parallel.hpp"

namespace dlpic::nn {

/// Arena of reusable buffers keyed by (owner pointer, slot id). Owners are
/// typically layer instances; slots distinguish a layer's buffers (output,
/// cached input, im2col columns, ...).
class Workspace {
 public:
  /// Reusable tensor reshaped to `dims`. First acquisition (or growth)
  /// allocates; steady-state reacquisition is allocation-free and returns
  /// the same storage. Contents are unspecified on shape change.
  Tensor& tensor(const void* owner, int slot, std::initializer_list<size_t> dims);

  /// The slot's current tensor without reshaping it (an empty tensor when
  /// the slot has never been acquired). Used to read back cached
  /// activations in backward passes.
  Tensor& peek(const void* owner, int slot);

  /// Reusable raw scratch of at least `n` elements (grow-only). T is double
  /// for f64 staging, or a quantized code type (int8_t, int16_t) for the
  /// quantized forwards' operand staging, so a steady-state batch loop
  /// quantizes without allocating.
  template <typename T = double>
  std::vector<T>& scratch(const void* owner, int slot, size_t n) {
    std::vector<T>& v = std::get<Map<std::vector<T>>>(scratch_)[Key{owner, slot}];
    if (v.size() < n) v.resize(n);
    return v;
  }

  /// Reusable index scratch of exactly `n` elements (grow-only capacity).
  std::vector<size_t>& indices(const void* owner, int slot, size_t n);

  /// The slot's current index buffer without resizing it (empty when the
  /// slot has never been acquired).
  std::vector<size_t>& indices_peek(const void* owner, int slot);

  /// Releases every buffer (invalidates all outstanding references).
  void clear();

  /// Total bytes currently held across all buffers (diagnostics).
  [[nodiscard]] size_t bytes() const;

 private:
  struct Key {
    const void* owner;
    int slot;
    bool operator==(const Key& other) const {
      return owner == other.owner && slot == other.slot;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Pointer bits mixed with the slot; layers use single-digit slot ids.
      auto h = reinterpret_cast<uintptr_t>(k.owner);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 29;
      return static_cast<size_t>(h) + static_cast<size_t>(k.slot) * 0x9e3779b9u;
    }
  };

  template <typename V>
  using Map = std::unordered_map<Key, V, KeyHash>;

  Map<Tensor> tensors_;
  std::tuple<Map<std::vector<double>>, Map<std::vector<int8_t>>, Map<std::vector<int16_t>>>
      scratch_;
  Map<std::vector<size_t>> indices_;
};

/// Execution state handed to Layer::forward/backward: workspace + worker
/// policy + kernel backend. The worker cap (0 = inherit the global
/// DLPIC_THREADS / set_max_workers width) and the backend (nullptr =
/// inherit the DLPIC_BACKEND / ScopedBackend selection) are applied per
/// layer call through thread-local RAII scopes, so contexts with different
/// policies can run on different threads concurrently without touching
/// process-global state.
class ExecutionContext {
 public:
  explicit ExecutionContext(size_t worker_cap = 0,
                            const KernelBackend* backend = nullptr)
      : worker_cap_(worker_cap), backend_(backend) {}

  [[nodiscard]] Workspace& workspace() { return workspace_; }

  /// Worker cap applied by layer kernels for the duration of each call
  /// (0 = inherit). 1 makes this a fully serial context.
  [[nodiscard]] size_t worker_cap() const { return worker_cap_; }
  void set_worker_cap(size_t cap) { worker_cap_ = cap; }

  /// Kernel backend this context pins its layer calls to (nullptr =
  /// inherit the thread's active backend — the DLPIC_BACKEND default
  /// unless a ScopedBackend override is in scope).
  [[nodiscard]] const KernelBackend* backend() const { return backend_; }
  void set_backend(const KernelBackend* backend) { backend_ = backend; }

  /// The backend a layer call on this context will actually execute with.
  [[nodiscard]] const KernelBackend& resolved_backend() const {
    return backend_ != nullptr ? *backend_ : active_backend();
  }

  /// Quantized weights layer forwards on this context run with (not
  /// owned). Null (the default) is the f64 path. A cache makes every Dense
  /// and Conv2D forward run its GEMM through the quantized kernels at the
  /// cache's precision, taking the weight codes from the cache —
  /// inference only: the layers throw when asked to train, and throw
  /// std::logic_error for a layer the cache does not hold. The serving
  /// layer points this at the served bundle's cache before each batch.
  [[nodiscard]] const QuantizedWeightCache* quantized_weights() const {
    return quantized_weights_;
  }
  void set_quantized_weights(const QuantizedWeightCache* cache) {
    quantized_weights_ = cache;
  }

  /// Numeric precision layer forwards on this context execute at: the
  /// cache's precision, or kF64 without one.
  [[nodiscard]] Precision precision() const {
    return quantized_weights_ != nullptr ? quantized_weights_->precision()
                                         : Precision::kF64;
  }

  /// Effective partition width this context dispatches at right now.
  [[nodiscard]] size_t workers() const {
    util::ScopedWorkerCap cap(worker_cap_);
    return util::parallel_workers();
  }

  [[nodiscard]] bool serial() const { return workers() <= 1; }

 private:
  size_t worker_cap_;
  const KernelBackend* backend_;
  const QuantizedWeightCache* quantized_weights_ = nullptr;
  Workspace workspace_;
};

}  // namespace dlpic::nn
