#include "serve/request_queue.hpp"

#include <algorithm>
#include <string>

#include "util/fault_injection.hpp"

namespace dlpic::serve {

std::future<std::vector<double>> RequestQueue::push(std::vector<double> input,
                                                    const RequestOptions& options) {
  if (options.model_id >= kMaxModels)
    throw std::invalid_argument("RequestQueue::push: model_id " +
                                std::to_string(options.model_id) + " >= kMaxModels (" +
                                std::to_string(kMaxModels) + ")");
  if (static_cast<size_t>(options.priority) >= kNumLanes)
    throw std::invalid_argument("RequestQueue::push: invalid priority value " +
                                std::to_string(static_cast<size_t>(options.priority)));
  // Chaos seam: an injected push fault is indistinguishable from a closed
  // queue to the caller — the request was never admitted, no promise exists.
  util::fault_point(util::FaultSite::kQueuePush);
  const int64_t now_ns = trace_now_ns();
  std::unique_lock<std::mutex> lock(mutex_);
  if (capacity_ > 0)
    cv_push_.wait(lock, [&] { return closed_ || total_ < capacity_; });
  if (closed_) throw std::runtime_error("RequestQueue::push: queue is closed");
  Lane& lane = lanes_[static_cast<size_t>(options.priority)];
  if (lane.per_model.size() <= options.model_id)
    lane.per_model.resize(options.model_id + 1);
  auto& fifo = lane.per_model[options.model_id];
  fifo.emplace_back();
  Request& request = fifo.back();
  request.input = std::move(input);
  request.priority = options.priority;
  request.deadline = options.deadline;
  request.model_id = options.model_id;
  request.seq = next_seq_++;
  request.submit_ns = now_ns;
  request.trace = options.trace_slot;
  if (request.trace) request.trace->stamp(TraceStage::kEnqueue, now_ns);
  ++lane.count;
  ++total_;
  auto future = request.result.get_future();
  lock.unlock();
  // notify_all, not notify_one: consumers wait with heterogeneous predicates
  // (a batcher inside its window only wakes for ITS model), so a targeted
  // wakeup could be swallowed by a consumer whose predicate stays false.
  cv_pop_.notify_all();
  return future;
}

size_t RequestQueue::select_model_locked() const {
  for (const Lane& lane : lanes_) {
    if (lane.count == 0) continue;
    size_t best_model = 0;
    uint64_t best_seq = UINT64_MAX;
    for (size_t m = 0; m < lane.per_model.size(); ++m) {
      const auto& fifo = lane.per_model[m];
      if (!fifo.empty() && fifo.front().seq < best_seq) {
        best_seq = fifo.front().seq;
        best_model = m;
      }
    }
    return best_model;
  }
  return 0;  // unreachable under the total_ > 0 precondition
}

bool RequestQueue::model_pending_locked(size_t model) const {
  for (const Lane& lane : lanes_)
    if (model < lane.per_model.size() && !lane.per_model[model].empty()) return true;
  return false;
}

void RequestQueue::collect_locked(std::vector<Request>& out, size_t model, size_t budget,
                                  std::chrono::steady_clock::time_point& earliest_deadline) {
  for (Lane& lane : lanes_) {
    if (model >= lane.per_model.size()) continue;
    auto& fifo = lane.per_model[model];
    const size_t before = out.size();
    while (!fifo.empty() && out.size() < budget) {
      earliest_deadline = std::min(earliest_deadline, fifo.front().deadline);
      out.push_back(std::move(fifo.front()));
      fifo.pop_front();
    }
    lane.count -= out.size() - before;
    total_ -= out.size() - before;
  }
}

size_t RequestQueue::pop_batch(std::vector<Request>& out,
                               const std::function<PopPolicy(size_t)>& policy_of) {
  out.clear();
  // Chaos seam: a pop fault fires before any request is in hand, so a dying
  // consumer never strands a popped-but-unanswered promise.
  util::fault_point(util::FaultSite::kQueuePop);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_pop_.wait(lock, [&] { return closed_ || total_ > 0; });
  if (total_ == 0) return 0;  // closed and fully drained

  // The batch is pinned to one model: the head of the highest-priority
  // non-empty lane. Requests for other models stay queued for concurrent
  // (or subsequent) pop_batch calls — a batch never mixes models. Its
  // policy is read now, so a model registered while this consumer waited
  // batches under its own policy from its first request on.
  const size_t model = select_model_locked();
  const PopPolicy policy = policy_of(model);
  const size_t max_batch = std::max<size_t>(1, policy.max_batch);

  // The batching window opens when the first request is in hand: keep
  // collecting until the batch is full, the window — clamped to the
  // earliest deadline collected so far — passes, or close().
  const auto window = std::chrono::steady_clock::now() + policy.max_wait;
  auto earliest_deadline = kNoDeadline;
  for (;;) {
    const size_t before = out.size();
    collect_locked(out, model, max_batch, earliest_deadline);
    // Wake producers blocked on a bounded queue before (possibly) waiting
    // out the window: the batch can only keep filling if they get to push.
    if (capacity_ > 0 && out.size() != before) cv_push_.notify_all();
    if (out.size() >= max_batch || closed_) break;
    const auto flush_at = std::min(window, earliest_deadline);
    if (std::chrono::steady_clock::now() >= flush_at) break;
    if (!cv_pop_.wait_until(lock, flush_at,
                            [&] { return closed_ || model_pending_locked(model); }))
      break;  // window (or a collected request's deadline) passed: flush
  }
  return out.size();
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_pop_.notify_all();
  cv_push_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

size_t RequestQueue::drain(std::vector<Request>& out) {
  out.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(total_);
  for (Lane& lane : lanes_) {
    for (auto& fifo : lane.per_model) {
      while (!fifo.empty()) {
        out.push_back(std::move(fifo.front()));
        fifo.pop_front();
      }
    }
    lane.count = 0;
  }
  total_ = 0;
  cv_push_.notify_all();  // free any producer blocked on backpressure
  return out.size();
}

}  // namespace dlpic::serve
