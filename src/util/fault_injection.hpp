#pragma once
/// \file fault_injection.hpp
/// Deterministic, seed-driven fault-injection seam for chaos testing. Each
/// injection site is a named probability knob; the decision for the n-th
/// query at a site is a pure function of (seed, site, n), so a fault
/// schedule is reproducible from the seed alone: two runs with the same seed
/// and probabilities inject at exactly the same per-site query indices, no
/// matter how threads interleave. (Thread interleaving may change *which
/// operation* draws the n-th query — the schedule of decisions per site is
/// what is deterministic, and what the replay test pins.)
///
/// Configuration: the process-wide injector reads `DLPIC_FAULT_SEED` (u64)
/// and `DLPIC_FAULT_SITES` ("site=probability" pairs, comma-separated, e.g.
/// `queue.push=0.01,batcher.run_batch=0.05`) once at first use; tests
/// reconfigure at runtime through the setters, usually under a
/// ScopedFaultInjection guard. All probabilities default to 0, and the
/// disabled fast path is a single relaxed atomic load — fault_point() costs
/// nothing measurable on production hot paths.
///
/// Wired-in sites: ThreadPool task execution (the injected fault surfaces
/// from wait_idle like any escaping task exception), RequestQueue push/pop,
/// DynamicBatcher::run_batch (every promise of the batch receives the
/// fault), the InferenceServer worker loop (the worker dies; surviving
/// workers keep draining, and shutdown() fails whatever is left so no
/// promise is ever lost), first-use FFT planning in math::get_fft_plan
/// (the plan cache stays unchanged; the next call replans), and the socket
/// boundary (net.accept / net.read / net.write in net::Listener / Socket —
/// a fired site drops the accept or the connection; the NetServer keeps
/// listening and every in-flight request still resolves, locally with an
/// error or at the client when the dropped connection fails its pending
/// futures).

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace dlpic::util {

/// Injection sites. Enumerator order is part of the deterministic schedule
/// (the site index seeds the per-site hash stream) — append, don't reorder.
enum class FaultSite : size_t {
  kThreadPoolTask = 0,  ///< "thread_pool.task": before a pool task runs
  kQueuePush,           ///< "queue.push": serve::RequestQueue::push entry
  kQueuePop,            ///< "queue.pop": serve::RequestQueue::pop_batch entry
  kBatcherRunBatch,     ///< "batcher.run_batch": before forward-pass assembly
  kServerWorker,        ///< "server.worker": InferenceServer worker loop (death)
  kFftPlanCreate,       ///< "fft_plan.create": first-use FFT planning in
                        ///< math::get_fft_plan (an allocation failure while
                        ///< building twiddle/chirp tables; the cache stays
                        ///< unchanged and the next call replans)
  kNetAccept,           ///< "net.accept": net::Listener::accept (a failed
                        ///< accept; the server's accept loop logs and keeps
                        ///< listening)
  kNetRead,             ///< "net.read": net::RecvBuffer::next entry (the
                        ///< connection drops; peers fail pending requests)
  kNetWrite,            ///< "net.write": net::Socket::send_all entry (ditto)
  kCount
};

/// Number of injection sites.
inline constexpr size_t kNumFaultSites = static_cast<size_t>(FaultSite::kCount);

/// The site's stable configuration name (e.g. "queue.push").
const char* fault_site_name(FaultSite site);

/// Parses a site name; throws std::invalid_argument on an unknown name.
FaultSite parse_fault_site(const std::string& name);

/// The distinct exception every injected fault throws. Carries the site and
/// the per-site query index (tick) that fired, so a failure can be traced
/// back to its position in the deterministic schedule.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, uint64_t tick);
  [[nodiscard]] FaultSite site() const { return site_; }
  [[nodiscard]] uint64_t tick() const { return tick_; }

 private:
  FaultSite site_;
  uint64_t tick_;
};

/// Process-wide deterministic fault injector. Thread-safe: every member may
/// be called concurrently (configuration setters are atomic per knob; tests
/// quiesce traffic before reconfiguring for exact schedules).
class FaultInjector {
 public:
  /// The process-wide instance (env-configured on first use).
  static FaultInjector& instance();

  /// Pure decision function: does the `tick`-th query at `site` inject under
  /// `seed` and `probability`? Exposed so tests can pin the schedule without
  /// going through the stateful counters.
  static bool decide(uint64_t seed, FaultSite site, uint64_t tick, double probability);

  /// Replaces the seed and resets every per-site counter (a new schedule
  /// starts at tick 0).
  void set_seed(uint64_t seed);
  [[nodiscard]] uint64_t seed() const { return seed_.load(std::memory_order_relaxed); }

  /// Sets one site's injection probability (clamped to [0, 1]).
  void set_probability(FaultSite site, double probability);
  [[nodiscard]] double probability(FaultSite site) const;

  /// Zeroes every probability (counters keep their positions).
  void disable_all();

  /// Resets every per-site call/injected counter to 0 (replay from tick 0).
  void reset_counters();

  /// Re-reads DLPIC_FAULT_SEED / DLPIC_FAULT_SITES (counters reset).
  void reload_from_env();

  /// True when any site has a non-zero probability — the hot-path gate.
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Draws the site's next tick and returns whether it injects.
  bool should_inject(FaultSite site);

  /// should_inject + throw InjectedFault when it fires.
  void maybe_throw(FaultSite site);

  /// Queries drawn at `site` since the last reset.
  [[nodiscard]] uint64_t calls(FaultSite site) const;
  /// Faults injected at `site` since the last reset.
  [[nodiscard]] uint64_t injected(FaultSite site) const;

  FaultInjector();  // env-configured; prefer instance()

 private:
  void refresh_enabled();

  std::atomic<uint64_t> seed_{0};
  std::atomic<bool> enabled_{false};
  std::array<std::atomic<double>, kNumFaultSites> probability_{};
  std::array<std::atomic<uint64_t>, kNumFaultSites> calls_{};
  std::array<std::atomic<uint64_t>, kNumFaultSites> injected_{};
};

/// Hot-path hook: no-op (one relaxed load) unless some site is enabled.
inline void fault_point(FaultSite site) {
  FaultInjector& injector = FaultInjector::instance();
  if (injector.enabled()) injector.maybe_throw(site);
}

/// RAII test guard: snapshots the process injector's seed + probabilities on
/// construction and restores them (and resets the counters) on destruction,
/// so a chaos test cannot leak fault configuration into later tests.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection();
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  uint64_t saved_seed_;
  std::array<double, kNumFaultSites> saved_probability_;
};

}  // namespace dlpic::util
