/// \file serve_fieldsolver.cpp
/// Batched inference serving demo: a DlFieldSolver's model and normalizer
/// registered on an InferenceServer, driven end to end by concurrent clients
/// submitting phase-space field-solve requests.
///
///   ./serve_fieldsolver [--clients=4] [--requests=64] [--max_batch=8]
///                       [--max_wait_us=500] [--workers=1]
///
/// Each client bins its own two-stream phase space (a distinct random seed
/// per client) and submits the histogram to the server, which coalesces the
/// concurrent requests into batched forward passes. The demo
/// prints throughput, client-observed latency percentiles, and the batching
/// amortization the server achieved, then verifies one sample against the
/// synchronous solve_histogram() path (bitwise).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/dl_field_solver.hpp"
#include "math/rng.hpp"
#include "nn/model_zoo.hpp"
#include "phase_space/binner.hpp"
#include "pic/loader.hpp"
#include "serve/inference_server.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace dlpic;
  auto args = util::Config::from_args(argc, argv);
  const size_t clients =
      std::max<size_t>(1, static_cast<size_t>(args.get_int_or("clients", 4)));
  const size_t requests =
      std::max<size_t>(1, static_cast<size_t>(args.get_int_or("requests", 64)));

  // Field solver: 32x32 histogram -> MLP -> 64 grid cells. The weights are
  // untrained (this demo is about the serving path, not accuracy); swap in
  // DlFieldSolver::load(...) for a trained bundle.
  phase_space::BinnerConfig bc;
  bc.nx = 32;
  bc.nv = 32;
  nn::MlpSpec spec;
  spec.input_dim = bc.nx * bc.nv;
  spec.output_dim = 64;
  spec.hidden = 256;
  core::DlFieldSolver solver(nn::build_mlp(spec), data::MinMaxNormalizer(0.0, 1000.0), bc);

  serve::ServerConfig cfg;
  cfg.max_batch = static_cast<size_t>(args.get_int_or("max_batch", 8));
  cfg.max_wait_us = static_cast<uint32_t>(args.get_int_or("max_wait_us", 500));
  cfg.worker_threads = static_cast<size_t>(args.get_int_or("workers", 1));
  cfg.context_worker_cap = cfg.worker_threads > 1 ? 1 : 0;
  serve::InferenceServer server(cfg);
  const size_t model_id = server.add_model("field-solver", solver.model(), bc.nx * bc.nv,
                                           &solver.normalizer());

  std::printf("serving: max_batch=%zu max_wait=%uus workers=%zu | %zu clients x %zu requests\n",
              cfg.max_batch, cfg.max_wait_us, cfg.worker_threads, clients, requests);

  // Each client: bin a private two-stream phase space, then hammer the
  // server with it and record client-observed latencies.
  std::mutex merge_mutex;
  std::vector<double> latencies_us;
  std::vector<double> sample_histogram;  // kept for the verification below
  const auto t_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pic::Grid1D grid(64, bc.length);
      math::Rng rng(1000 + c);
      pic::TwoStreamParams params;
      params.vth = 0.01;
      auto species = pic::load_two_stream(grid, 64 * 200, params, rng);
      const auto histogram = phase_space::PhaseSpaceBinner(bc).bin(species);

      std::vector<double> local_us;
      local_us.reserve(requests);
      for (size_t i = 0; i < requests; ++i) {
        // Client 0 runs on the interactive lane: under load its requests
        // cut ahead of the bulk traffic from the other clients.
        serve::SubmitOptions options;
        options.model_id = model_id;
        options.priority = c == 0 ? serve::Priority::kInteractive : serve::Priority::kBulk;
        const auto t0 = std::chrono::steady_clock::now();
        auto field = server.submit(histogram, options).get();
        const auto dt = std::chrono::steady_clock::now() - t0;
        local_us.push_back(std::chrono::duration<double, std::micro>(dt).count());
        if (field.size() != spec.output_dim) std::abort();  // demo invariant
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies_us.insert(latencies_us.end(), local_us.begin(), local_us.end());
      if (sample_histogram.empty()) sample_histogram = histogram;
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      t_start)
                            .count();

  const auto stats = server.stats();
  std::sort(latencies_us.begin(), latencies_us.end());
  auto pct = [&](double p) {
    return latencies_us[static_cast<size_t>(p * static_cast<double>(latencies_us.size() - 1))];
  };
  const double total = static_cast<double>(clients * requests);
  std::printf("served %.0f requests in %.3f s  ->  %.0f requests/s\n", total, wall_s,
              total / wall_s);
  std::printf("latency: p50 = %.0f us, p99 = %.0f us\n", pct(0.50), pct(0.99));
  std::printf("batching: %zu forward passes, mean batch %.2f, max batch %zu\n",
              stats.batches, stats.mean_batch(), stats.max_batch_observed);

  // The batcher's determinism contract: the served result is bitwise equal
  // to the synchronous single-sample path.
  serve::SubmitOptions options;
  options.model_id = model_id;
  const auto served_field = server.submit(sample_histogram, options).get();
  server.shutdown();
  const auto sync_field = solver.solve_histogram(sample_histogram);
  if (served_field != sync_field) {
    std::printf("FAIL: batched result differs from synchronous inference\n");
    return 1;
  }
  std::printf("verified: batched == synchronous single-sample inference (bitwise)\n");
  return 0;
}
