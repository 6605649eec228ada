#pragma once
/// \file dynamic_batcher.hpp
/// Coalesces queued single-sample requests into one single-model batch
/// tensor, runs one batched forward pass on an ExecutionContext, and
/// scatters the output rows back to the requests' futures. Expired requests
/// (deadline passed) are failed with DeadlineExpired *before* forward-pass
/// assembly — they never consume model compute.
///
/// Determinism contract: every layer kernel computes each output row with an
/// accumulation order independent of the batch dimension (GEMM tiles own
/// their k-order; conv fans out per image), so a sample served in a batch of
/// N is bitwise identical to the same sample served alone — batching is a
/// pure throughput optimization, never a numerics change, for every lane,
/// model and backend (tests/serve/test_serving.cpp and
/// tests/serve/test_serving_stress.cpp enforce this).

#include <cstddef>
#include <functional>
#include <vector>

#include "nn/execution_context.hpp"
#include "serve/model_registry.hpp"
#include "serve/request_queue.hpp"

namespace dlpic::serve {

/// One serving loop body: pop a single-model batch, reject expired requests,
/// assemble the batch tensor in the context's workspace (allocation-free in
/// steady state), run one forward pass on that model, scatter rows to
/// futures. Owned and driven by a single consumer thread; the referenced
/// models may be shared with other batchers because all per-call state lives
/// in this batcher's ExecutionContext.
class DynamicBatcher {
 public:
  /// Serves whichever registered model the queue opens a batch for, under
  /// that model's ModelConfig. The registry (and every model in it) and the
  /// context must outlive the batcher.
  DynamicBatcher(const ModelRegistry& registry, nn::ExecutionContext& context);

  /// Pops one batch from `queue` and serves it (blocking per the selected
  /// model's batching window). Returns the number of requests popped
  /// (served, expired or rejected); 0 means the queue is closed and
  /// drained — the consumer loop's exit signal.
  size_t serve_once(RequestQueue& queue);

 private:
  /// Serves `batch_` (never empty, all requests of `bundle`'s model): one
  /// forward pass + row scatter. On failure every request in the batch
  /// receives the exception (and its trace, if any, finishes kError).
  void run_batch(ModelBundle& bundle);

  const ModelRegistry& registry_;
  nn::ExecutionContext& ctx_;
  std::vector<Request> batch_;   // reused across serve_once calls
  std::vector<Request> failed_;  // reused: requests failed pre-assembly
  // The registry's policy lookup, read by the queue as each batch opens.
  const std::function<PopPolicy(size_t)> policy_of_;
};

}  // namespace dlpic::serve
