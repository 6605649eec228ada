#pragma once
/// \file common.hpp
/// Shared plumbing of the perfbench workloads: command-line options, the
/// per-invocation report (attempted/failed operations + named metrics),
/// sample statistics and the wall clock every span is timed with.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One invocation's settings, parsed from the command line.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  std::string workdir;    ///< working directory for bundles and sockets
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): operation counts, the metric set of
/// the run (end-to-end or per-layer) and human-readable diagnostics that are
/// printed before the result line but are not metrics.
struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  /// False when a whole-run check fails (the traced replica diverging from
  /// the program); per-operation gate failures count in `failed` instead.
  bool checks_passed = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// The throughput and latency a run reports are those of its fastest
/// quarter of windows (short stretches of steps or requests). On a shared
/// host the speed a core gives the program drops by 20-50% for seconds to
/// minutes at a time, and a slow stretch only ever makes a window slower:
/// the fastest quarter moves only when slow stretches cover more than three
/// quarters of the run, a median already when they cover half of it.
constexpr double kFastShare = 0.25;

/// Linearly interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// "p50 1.23 p90 1.50 p99 2.01 (n=1000)" — tails are diagnostics only.
std::string tail_summary(const std::vector<double>& values, const char* unit);

/// Independent stream `stream` of the run seed (splitmix64 finalizer), so
/// job j of seed s is the same job in every run with seed s.
uint64_t mix_seed(uint64_t seed, uint64_t stream);

/// Restricts this process to the last CPU it may run on; false when the
/// affinity call fails. Call before any thread starts: later threads
/// inherit the mask.
bool pin_to_one_cpu();

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

/// Size of a file in bytes (0 when missing).
double file_bytes(const std::string& path);

/// True when two double arrays hold identical bit patterns.
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench
