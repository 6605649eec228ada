#pragma once
/// \file workloads.hpp
/// The three benchmark workloads. Each runs for options.seconds, checks
/// every operation it attempts, and reports either the end-to-end metrics
/// (options.trace == false) or the per-layer metrics of a separate traced
/// pass (options.trace == true). README.md explains the choices.

#include "common.hpp"

namespace perfbench {

/// Traditional PIC at the paper configuration, 200-step jobs, 1 worker.
Report run_pic_paper(const Options& options);

/// DL-PIC with the paper-shaped analytic MLP, 200-step jobs, 1 worker.
Report run_dlpic_paper(const Options& options);

/// CI-shaped field solves served over a unix socket (closed + open loop).
Report run_serve_ci(const Options& options);

}  // namespace perfbench
