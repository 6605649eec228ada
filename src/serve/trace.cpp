#include "serve/trace.hpp"

#include <algorithm>

namespace dlpic::serve {

const char* trace_stage_name(TraceStage stage) {
  static constexpr const char* kNames[kNumTraceStages] = {
      "submit", "enqueue", "pop", "assemble", "forward", "scatter",
  };
  return kNames[static_cast<size_t>(stage)];
}

const char* trace_outcome_name(TraceOutcome outcome) {
  switch (outcome) {
    case TraceOutcome::kInFlight: return "in_flight";
    case TraceOutcome::kServed: return "served";
    case TraceOutcome::kExpired: return "expired";
    case TraceOutcome::kError: return "error";
    case TraceOutcome::kRejected: return "rejected";
  }
  return "unknown";
}

TraceRing::TraceRing(size_t capacity) {
  if (capacity == 0) return;
  slots_storage_ = std::make_unique<TraceSlot[]>(capacity);
  slots_.data = slots_storage_.get();
  slots_.count = capacity;
}

TraceSlot* TraceRing::try_claim(uint64_t seq, uint64_t model_id, uint32_t lane) {
  if (slots_.empty()) return nullptr;
  // Probe a bounded number of slots starting at the shared cursor: a slot
  // whose version is even (free or completed) is claimed by CAS to odd. A
  // fully in-flight ring drops the trace instead of blocking or spinning.
  constexpr size_t kMaxProbes = 8;
  const size_t probes = std::min(kMaxProbes, slots_.size());
  for (size_t attempt = 0; attempt < probes; ++attempt) {
    TraceSlot& slot =
        slots_[next_.fetch_add(1, std::memory_order_relaxed) % slots_.size()];
    uint64_t v = slot.version.load(std::memory_order_relaxed);
    if (v % 2 != 0) continue;  // a writer owns it
    if (!slot.version.compare_exchange_strong(v, v + 1, std::memory_order_acquire,
                                              std::memory_order_relaxed))
      continue;
    slot.seq.store(seq, std::memory_order_relaxed);
    slot.model_id.store(model_id, std::memory_order_relaxed);
    slot.lane.store(lane, std::memory_order_relaxed);
    slot.outcome.store(static_cast<uint32_t>(TraceOutcome::kInFlight),
                       std::memory_order_relaxed);
    for (auto& ts : slot.ts_ns) ts.store(0, std::memory_order_relaxed);
    return &slot;
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::vector<TraceRecord> TraceRing::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const TraceSlot& slot = slots_[i];
    // Seqlock read: copy only when the version is even (complete), non-zero
    // (ever claimed) and unchanged across the copy.
    const uint64_t v0 = slot.version.load(std::memory_order_acquire);
    if (v0 == 0 || v0 % 2 != 0) continue;
    TraceRecord record;
    record.seq = slot.seq.load(std::memory_order_relaxed);
    record.model_id = slot.model_id.load(std::memory_order_relaxed);
    record.lane = slot.lane.load(std::memory_order_relaxed);
    record.outcome =
        static_cast<TraceOutcome>(slot.outcome.load(std::memory_order_relaxed));
    for (size_t s = 0; s < kNumTraceStages; ++s)
      record.ts_ns[s] = slot.ts_ns[s].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) != v0) continue;  // torn: skip
    out.push_back(record);
  }
  return out;
}

}  // namespace dlpic::serve
