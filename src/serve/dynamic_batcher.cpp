#include "serve/dynamic_batcher.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "serve/metrics.hpp"
#include "util/fault_injection.hpp"

namespace dlpic::serve {

namespace {
// Workspace slot of the assembled batch input tensor. One slot serves every
// model: the workspace arena is grow-only, so alternating between models of
// different shapes steady-states at the largest volume with no allocation.
constexpr int kSlotBatchInput = 0;
}  // namespace

DynamicBatcher::DynamicBatcher(const ModelRegistry& registry,
                               nn::ExecutionContext& context)
    : registry_(registry), ctx_(context) {}

size_t DynamicBatcher::serve_once(RequestQueue& queue) {
  registry_.snapshot_policies(policies_);
  if (policies_.empty()) {
    // No model registered yet: pop with a minimal policy so mis-addressed
    // requests are rejected promptly instead of rotting in the queue.
    policies_.push_back(PopPolicy{1, std::chrono::microseconds(0)});
  }
  const size_t n = queue.pop_batch(batch_, policies_.data(), policies_.size());
  if (n == 0) return 0;

  // pop_batch never mixes models: every request carries the same model_id.
  ModelBundle* bundle = registry_.get(batch_.front().model_id);

  // Stamp traced requests' pop time with one shared clock read.
  {
    int64_t pop_ns = 0;
    for (Request& request : batch_) {
      if (request.trace == nullptr) continue;
      if (pop_ns == 0) pop_ns = trace_now_ns();
      request.trace->stamp(TraceStage::kPop, pop_ns);
    }
  }

  // Classify every popped request WITHOUT touching its promise: kept
  // requests compact to the front of batch_, failures move to failed_. The
  // deadline is checked once here — inference that has started by the
  // deadline is allowed to finish.
  const auto now = std::chrono::steady_clock::now();
  BatchAccounting accounting;
  failed_.clear();
  size_t keep = 0;
  for (size_t i = 0; i < batch_.size(); ++i) {
    Request& request = batch_[i];
    const size_t lane = static_cast<size_t>(request.priority);
    if (bundle == nullptr || request.input.size() != bundle->input_dim) {
      ++accounting.rejected;
      failed_.push_back(std::move(request));
    } else if (request.deadline <= now) {
      ++accounting.expired[lane];
      failed_.push_back(std::move(request));
    } else {
      ++accounting.served[lane];
      if (keep != i) batch_[keep] = std::move(batch_[i]);
      ++keep;
    }
  }
  batch_.resize(keep);
  accounting.batch_size = keep;
  accounting.forward_pass = keep > 0;  // an unknown model keeps nothing

  // Commit the whole batch's accounting in ONE coherent write to the model's
  // counter block BEFORE resolving any promise, so a client that has just
  // observed its future also sees its request in closed stats totals. A
  // batch for an unknown model counts nowhere (InferenceServer::submit
  // rejects unknown ids, so only direct queue users reach that branch).
  if (bundle != nullptr && bundle->metrics != nullptr)
    bundle->metrics->record(accounting);

  // Now fail the requests that never reach assembly: expired deadlines get
  // the distinct DeadlineExpired error, unknown models and malformed inputs
  // get descriptive failures (submit() validates, but the queue is a public
  // API). One bad sample never poisons the rest of the batch.
  for (Request& request : failed_) {
    if (bundle == nullptr) {
      request.result.set_exception(std::make_exception_ptr(std::runtime_error(
          "DynamicBatcher: no model registered for id " +
          std::to_string(request.model_id))));
      if (request.trace) request.trace->finish(TraceOutcome::kError);
    } else if (request.input.size() != bundle->input_dim) {
      request.result.set_exception(std::make_exception_ptr(std::invalid_argument(
          "DynamicBatcher: request input size " + std::to_string(request.input.size()) +
          " != model input dim " + std::to_string(bundle->input_dim))));
      if (request.trace) request.trace->finish(TraceOutcome::kError);
    } else {
      request.result.set_exception(std::make_exception_ptr(DeadlineExpired()));
      if (request.trace) request.trace->finish(TraceOutcome::kExpired);
    }
    request.trace = nullptr;
  }
  failed_.clear();

  if (!batch_.empty() && bundle != nullptr) run_batch(*bundle);
  batch_.clear();
  return n;
}

void DynamicBatcher::run_batch(ModelBundle& bundle) {
  const size_t b = batch_.size();
  // With padding enabled every forward pass carries the same fixed row
  // count; rows beyond the live batch are zeroed and later discarded.
  const size_t rows = bundle.config.pad_to_batch > b ? bundle.config.pad_to_batch : b;
  const size_t input_dim = bundle.input_dim;
  try {
    // Chaos seam: an injected fault here takes the exact path of a real
    // forward-pass failure — every promise of the batch receives it.
    util::fault_point(util::FaultSite::kBatcherRunBatch);

    {
      int64_t assemble_ns = 0;
      for (Request& request : batch_) {
        if (request.trace == nullptr) continue;
        if (assemble_ns == 0) assemble_ns = trace_now_ns();
        request.trace->stamp(TraceStage::kAssemble, assemble_ns);
      }
    }
    // Assemble [rows, input_dim] in the workspace: steady-state
    // reacquisition at the same shape is allocation-free.
    nn::Tensor& x = ctx_.workspace().tensor(this, kSlotBatchInput, {rows, input_dim});
    for (size_t i = 0; i < b; ++i) nn::set_row(x, i, batch_[i].input.data(), input_dim);
    if (rows > b)
      std::memset(x.data() + b * input_dim, 0, (rows - b) * input_dim * sizeof(double));
    if (bundle.normalizer) bundle.normalizer->apply(x.data(), x.size());

    // Per-bundle precision pick: the bundle's weight cache (null for f64
    // bundles) sets the context's precision. It is a plain per-context
    // field, so bundles of different precisions interleave freely on one
    // worker.
    ctx_.set_quantized_weights(bundle.quantized_weights.get());
    {
      int64_t forward_ns = 0;
      for (Request& request : batch_) {
        if (request.trace == nullptr) continue;
        if (forward_ns == 0) forward_ns = trace_now_ns();
        request.trace->stamp(TraceStage::kForward, forward_ns);
      }
    }
    const nn::Tensor& y = bundle.model->predict(ctx_, x);
    if (y.rank() != 2 || y.dim(0) != rows)
      throw std::runtime_error("DynamicBatcher: expected [batch, out] model output, got " +
                               y.shape_string());
    // One clock read stamps every scatter and feeds every latency sample of
    // the batch.
    const int64_t scatter_ns = trace_now_ns();
    // Fulfil lane by lane in priority order, and youngest-first within a
    // lane. A waiter that resolves its futures in FIFO order (NetServer's
    // writer, a pipelining client) blocks on its oldest one; setting that
    // one last means it wakes once per batch and finds the rest ready,
    // instead of trading the CPU with this thread once per row.
    std::vector<double> row;
    for (size_t lane = 0; lane < kNumLanes; ++lane) {
      for (size_t i = b; i-- > 0;) {
        Request& request = batch_[i];
        if (static_cast<size_t>(request.priority) != lane) continue;
        nn::get_row(y, i, row);
        request.result.set_value(std::move(row));
        if (bundle.metrics != nullptr && scatter_ns > request.submit_ns &&
            request.submit_ns > 0)
          bundle.metrics->record_latency(
              lane, static_cast<uint64_t>(scatter_ns - request.submit_ns) / 1000);
        if (request.trace) {
          request.trace->stamp(TraceStage::kScatter, scatter_ns);
          request.trace->finish(TraceOutcome::kServed);
          request.trace = nullptr;
        }
      }
    }
  } catch (...) {
    if (bundle.metrics != nullptr) bundle.metrics->record_forward_error();
    // Deliver the failure to every request of the batch that has not been
    // answered yet (set_value may have run for a prefix of the rows).
    const auto error = std::current_exception();
    for (auto& request : batch_) {
      try {
        request.result.set_exception(error);
      } catch (const std::future_error&) {
        // Already satisfied — keep the delivered value.
      }
      if (request.trace) {
        request.trace->finish(TraceOutcome::kError);
        request.trace = nullptr;
      }
    }
  }
}

}  // namespace dlpic::serve
