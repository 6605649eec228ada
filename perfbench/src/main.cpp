// perfbench: the repository benchmark program.
//
//   perfbench --workload pic_paper|dlpic_paper|serve_ci --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Prints diagnostics, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the workload's end-to-end metrics, with
// --trace 1 the per-layer metrics of the layers it runs; run.py checks them
// against BENCHMARK.json and fills the layers a workload does not run with 0.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"pic_paper", run_pic_paper},
    {"dlpic_paper", run_dlpic_paper},
    {"serve_ci", run_serve_ci},
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload")
      options.workload = value;
    else if (key == "--seed")
      options.seed = std::stoull(value);
    else if (key == "--seconds")
      options.seconds = std::stod(value);
    else if (key == "--trace")
      options.trace = value == "1";
    else if (key == "--workdir")
      options.workdir = value;
    else
      throw std::invalid_argument("unknown option " + key);
  }
  if (argc % 2 == 0) throw std::invalid_argument("options come in --key value pairs");
  if (options.workdir.empty()) throw std::invalid_argument("--workdir is required");
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    std::filesystem::create_directories(options.workdir);
    const Workload* workload = nullptr;
    for (const auto& w : kWorkloads)
      if (options.workload == w.name) workload = &w;
    if (workload == nullptr)
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    // Every workload runs on one CPU, pinned before any thread starts. On a
    // shared host a wakeup that has to bring another virtual CPU back costs
    // whatever the hypervisor makes it cost: unpinned, serve_ci's open-loop
    // p50 moved from 0.8 to 3.4 ms with the host's load, and pinned it held
    // at 0.84 ms through the same period.
    const bool pinned = pin_to_one_cpu();
    Report report = workload->run(options);
    report.note(pinned ? "pinned to one CPU" : "NOT pinned: sched_setaffinity failed");

    for (const auto& line : report.notes) std::printf("# %s\n", line.c_str());
    const bool correct = report.checks_passed && report.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", report.attempted, report.failed);
    const char* sep = "";
    for (const auto& m : report.metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                  m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
