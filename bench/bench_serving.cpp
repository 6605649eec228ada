/// \file bench_serving.cpp
/// Serving-path benchmarks: batched inference throughput (requests/sec) and
/// client-observed latency (p50/p99) versus client count and max_batch,
/// against the single-request serial baseline. Args are {clients, max_batch,
/// worker_threads, burst, pad, precision}: `burst` pipelines that many
/// outstanding submissions per client (1 = the old submit-then-wait loop) so
/// batch formation is not throttled by client round-trips, `pad` != 0
/// enables fixed-shape micro-batch padding (pad_to_batch = max_batch), and
/// `precision` picks the serving tier (0 = f64, 1 = int8, 2 = int16
/// quantized GEMM). Every run
/// also reports mean_batch (the amortization the dynamic batcher achieved).
///
/// bench_serve_lanes sweeps the priority-lane / multi-model scheduler under
/// saturation: {bulk_clients, interactive_clients, models, max_batch} with
/// bulk clients keeping a deep pipelined backlog outstanding and interactive
/// clients trickling latency-sensitive requests (round-robin across models,
/// some with tight deadlines). Reported counters: per-lane
/// interactive_p50_us/interactive_p99_us vs bulk_p50_us/bulk_p99_us (under
/// saturation interactive p99 must sit well below bulk p99 — the lane
/// scheduler's reason to exist) and `expired` (deadline rejections, which
/// never buy a forward pass).
///
/// Results land in BENCH_serving.json with the usual SHA/build metadata —
/// compare items_per_second of bench_serve_batched/* against
/// bench_serve_serial_single across commits.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_json.hpp"
#include "math/rng.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "nn/execution_context.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "serve/inference_server.hpp"

namespace {

using namespace dlpic;

// Field-solver-shaped model: 32x32 phase-space histogram in, 64 grid cells
// out. Small enough to iterate quickly, large enough that GEMM dominates.
constexpr size_t kInputDim = 32 * 32;
constexpr size_t kOutputDim = 64;
constexpr size_t kRequestsPerClient = 32;

nn::Sequential serving_model() {
  nn::MlpSpec spec;
  spec.input_dim = kInputDim;
  spec.output_dim = kOutputDim;
  spec.hidden = 256;
  spec.depth = 3;
  spec.seed = 2027;
  return nn::build_mlp(spec);
}

std::vector<double> random_sample(uint64_t seed) {
  math::Rng rng(seed);
  std::vector<double> s(kInputDim);
  for (auto& v : s) v = rng.uniform(0.0, 1.0);
  return s;
}

double percentile(std::vector<double>& sorted_ascending, double p) {
  if (sorted_ascending.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_ascending.size() - 1));
  return sorted_ascending[idx];
}

/// Baseline: one client, no queue, one sample per forward pass on a fully
/// serial context — the pre-serving deployment shape.
void bench_serve_serial_single(benchmark::State& state) {
  auto model = serving_model();
  nn::ExecutionContext ctx(/*worker_cap=*/1);
  const auto sample = random_sample(1);
  nn::Tensor x({1, kInputDim});
  std::copy(sample.begin(), sample.end(), x.data());
  for (auto _ : state) {
    const nn::Tensor& y = model.predict(ctx, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["requests_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

/// Batched serving: `clients` producer threads submit kRequestsPerClient
/// requests each per iteration — pipelined `burst` at a time, so with
/// burst > 1 a client keeps several requests outstanding and the batcher
/// can actually fill batches instead of waiting on client round-trips.
/// Client-observed latencies (submit -> result) aggregate into p50/p99.
/// With `observability` every request is traced into a live trace ring and
/// a scraper renders the full Prometheus exposition once per iteration —
/// the bench_serve_batched_obs twin rows measure that overhead against the
/// plain rows (the acceptance budget is < 3% on p50).
void run_serve_batched(benchmark::State& state, bool observability) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t max_batch = static_cast<size_t>(state.range(1));
  const size_t worker_threads = static_cast<size_t>(state.range(2));
  const size_t burst = static_cast<size_t>(state.range(3));

  auto model = serving_model();
  serve::ServerConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_wait_us = 200;
  cfg.worker_threads = worker_threads;
  // One parallel worker context; several contexts pinned serial.
  cfg.context_worker_cap = worker_threads > 1 ? 1 : 0;
  if (observability) cfg.trace_capacity = 4096;
  serve::ModelConfig mc = cfg.model_defaults();
  mc.pad_to_batch = state.range(4) != 0 ? max_batch : 0;
  mc.precision = state.range(5) == 1   ? nn::Precision::kInt8
                 : state.range(5) == 2 ? nn::Precision::kInt16
                                       : nn::Precision::kF64;
  state.counters["precision"] =
      benchmark::Counter(static_cast<double>(state.range(5)));
  serve::InferenceServer server(cfg);
  server.add_model("default", model, kInputDim, mc);

  serve::SubmitOptions options;
  options.trace = observability;

  std::mutex latency_mutex;
  std::vector<double> latencies_us;
  size_t scrape_bytes = 0;

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const auto sample = random_sample(c + 1);
        std::vector<double> local_us;
        local_us.reserve(kRequestsPerClient);
        std::vector<std::chrono::steady_clock::time_point> t0;
        std::vector<std::future<std::vector<double>>> futures;
        t0.reserve(burst);
        futures.reserve(burst);
        for (size_t i = 0; i < kRequestsPerClient; i += burst) {
          const size_t wave = std::min(burst, kRequestsPerClient - i);
          t0.clear();
          futures.clear();
          for (size_t b = 0; b < wave; ++b) {
            t0.push_back(std::chrono::steady_clock::now());
            futures.push_back(server.submit(sample, options));
          }
          for (size_t b = 0; b < wave; ++b) {
            auto result = futures[b].get();
            const auto dt = std::chrono::steady_clock::now() - t0[b];
            benchmark::DoNotOptimize(result.data());
            local_us.push_back(
                std::chrono::duration<double, std::micro>(dt).count());
          }
        }
        std::lock_guard<std::mutex> lock(latency_mutex);
        latencies_us.insert(latencies_us.end(), local_us.begin(), local_us.end());
      });
    }
    for (auto& t : threads) t.join();
    if (observability) {
      // One full scrape per iteration — far more aggressive than any real
      // scrape cadence, so the measured overhead is an upper bound.
      const std::string text = server.metrics_prometheus();
      benchmark::DoNotOptimize(text.data());
      scrape_bytes = text.size();
    }
  }

  const auto stats = server.stats();
  std::sort(latencies_us.begin(), latencies_us.end());
  const double total_requests =
      static_cast<double>(state.iterations() * clients * kRequestsPerClient);
  state.SetItemsProcessed(static_cast<int64_t>(total_requests));
  state.counters["requests_per_s"] = benchmark::Counter(total_requests, benchmark::Counter::kIsRate);
  state.counters["p50_us"] = percentile(latencies_us, 0.50);
  state.counters["p99_us"] = percentile(latencies_us, 0.99);
  state.counters["mean_batch"] = stats.mean_batch();
  state.counters["max_batch_observed"] = static_cast<double>(stats.max_batch_observed);
  if (observability) {
    state.counters["scrape_bytes"] = static_cast<double>(scrape_bytes);
    state.counters["traces_dropped"] = static_cast<double>(server.trace_ring().dropped());
  }
}

void bench_serve_batched(benchmark::State& state) { run_serve_batched(state, false); }

/// The same serving sweep with the full observability surface hot: trace
/// ring enabled, every request traced, one Prometheus scrape per iteration.
/// Compare a row's p50_us against the bench_serve_batched row with the same
/// args to read the observability overhead (budget: < 3% on p50).
void bench_serve_batched_obs(benchmark::State& state) { run_serve_batched(state, true); }

/// Priority-lane / multi-model saturation sweep: `bulk_clients` keep a deep
/// pipelined backlog outstanding on the bulk lane while
/// `interactive_clients` trickle submit-then-wait requests on the
/// interactive lane, round-robin across `models` bundles behind one worker
/// pool. Every 4th interactive request carries a tight deadline so the
/// expiry path is exercised under load.
void bench_serve_lanes(benchmark::State& state) {
  const size_t bulk_clients = static_cast<size_t>(state.range(0));
  const size_t interactive_clients = static_cast<size_t>(state.range(1));
  const size_t models = static_cast<size_t>(state.range(2));
  const size_t max_batch = static_cast<size_t>(state.range(3));

  std::vector<nn::Sequential> bundles;
  bundles.reserve(models);
  for (size_t m = 0; m < models; ++m) {
    nn::MlpSpec spec;
    spec.input_dim = kInputDim;
    spec.output_dim = kOutputDim;
    spec.hidden = 256;
    spec.depth = 3;
    spec.seed = 3000 + m;
    bundles.push_back(nn::build_mlp(spec));
  }

  serve::ServerConfig cfg;
  cfg.worker_threads = 1;
  cfg.context_worker_cap = 0;
  serve::InferenceServer server(cfg);
  serve::ModelConfig mc;
  mc.max_batch = max_batch;
  mc.max_wait_us = 200;
  std::vector<size_t> ids;
  for (size_t m = 0; m < models; ++m)
    ids.push_back(server.add_model("bundle-" + std::to_string(m), bundles[m], kInputDim, mc));

  std::mutex latency_mutex;
  std::vector<double> bulk_us, interactive_us;

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(bulk_clients + interactive_clients);
    for (size_t c = 0; c < bulk_clients; ++c) {
      threads.emplace_back([&, c] {
        const auto sample = random_sample(c + 1);
        constexpr size_t kBacklog = 64;
        std::vector<std::chrono::steady_clock::time_point> t0(kBacklog);
        std::vector<std::future<std::vector<double>>> futures(kBacklog);
        std::vector<double> local_us;
        local_us.reserve(kBacklog);
        serve::SubmitOptions options;  // bulk lane, no deadline
        for (size_t i = 0; i < kBacklog; ++i) {
          options.model_id = ids[i % ids.size()];
          t0[i] = std::chrono::steady_clock::now();
          futures[i] = server.submit(sample, options);
        }
        for (size_t i = 0; i < kBacklog; ++i) {
          auto result = futures[i].get();
          benchmark::DoNotOptimize(result.data());
          local_us.push_back(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - t0[i])
                                 .count());
        }
        std::lock_guard<std::mutex> lock(latency_mutex);
        bulk_us.insert(bulk_us.end(), local_us.begin(), local_us.end());
      });
    }
    for (size_t c = 0; c < interactive_clients; ++c) {
      threads.emplace_back([&, c] {
        const auto sample = random_sample(100 + c);
        constexpr size_t kRequests = 16;
        std::vector<double> local_us;
        local_us.reserve(kRequests);
        for (size_t i = 0; i < kRequests; ++i) {
          serve::SubmitOptions options;
          options.priority = serve::Priority::kInteractive;
          options.model_id = ids[i % ids.size()];
          if (i % 4 == 3)  // exercise expiry under load
            options.deadline = std::chrono::steady_clock::now() + std::chrono::microseconds(50);
          const auto t0 = std::chrono::steady_clock::now();
          auto future = server.submit(sample, options);
          try {
            auto result = future.get();
            benchmark::DoNotOptimize(result.data());
            local_us.push_back(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
          } catch (const serve::DeadlineExpired&) {
            // Shed, not served: latency sample intentionally skipped.
          }
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
        std::lock_guard<std::mutex> lock(latency_mutex);
        interactive_us.insert(interactive_us.end(), local_us.begin(), local_us.end());
      });
    }
    for (auto& t : threads) t.join();
  }

  const auto stats = server.stats();
  std::sort(bulk_us.begin(), bulk_us.end());
  std::sort(interactive_us.begin(), interactive_us.end());
  state.SetItemsProcessed(static_cast<int64_t>(stats.requests));
  state.counters["bulk_p50_us"] = percentile(bulk_us, 0.50);
  state.counters["bulk_p99_us"] = percentile(bulk_us, 0.99);
  state.counters["interactive_p50_us"] = percentile(interactive_us, 0.50);
  state.counters["interactive_p99_us"] = percentile(interactive_us, 0.99);
  state.counters["expired"] = static_cast<double>(stats.expired);
  state.counters["mean_batch"] = stats.mean_batch();
}

/// Full network round trip: router + NetServer on a unix-domain socket,
/// `clients` net::Client connections each pipelining `burst` requests.
/// {clients, replicas, max_batch, burst}. Compare requests_per_s against
/// the bench_serve_batched row with matching batching args to read the
/// wire + framing + connection-handler overhead; p50_us/p99_us are
/// client-observed (encode -> socket -> decode -> router -> reply).
void bench_serve_net(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t replicas = static_cast<size_t>(state.range(1));
  const size_t max_batch = static_cast<size_t>(state.range(2));
  const size_t burst = static_cast<size_t>(state.range(3));

  auto model = serving_model();
  net::RouterConfig rc;
  rc.replicas = replicas;
  rc.server.worker_threads = 1;
  rc.server.context_worker_cap = 0;
  net::Router router(rc);
  serve::ModelConfig mc;
  mc.max_batch = max_batch;
  mc.max_wait_us = 200;
  router.add_model("bundle", model, kInputDim, mc);

  const std::string path =
      "/tmp/dlpic_bench_net_" + std::to_string(::getpid()) + ".sock";
  net::NetServer server(router, net::Address::unix_socket(path));

  std::mutex latency_mutex;
  std::vector<double> latencies_us;

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        net::Client client(server.address());
        const auto sample = random_sample(c + 1);
        std::vector<double> local_us;
        local_us.reserve(kRequestsPerClient);
        std::vector<std::chrono::steady_clock::time_point> t0;
        std::vector<std::future<net::NetResponse>> futures;
        for (size_t i = 0; i < kRequestsPerClient; i += burst) {
          const size_t wave = std::min(burst, kRequestsPerClient - i);
          t0.clear();
          futures.clear();
          for (size_t b = 0; b < wave; ++b) {
            t0.push_back(std::chrono::steady_clock::now());
            futures.push_back(client.submit_async("bundle", sample));
          }
          for (size_t b = 0; b < wave; ++b) {
            const net::NetResponse response = futures[b].get();
            benchmark::DoNotOptimize(response.payload.data());
            local_us.push_back(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - t0[b])
                                   .count());
          }
        }
        std::lock_guard<std::mutex> lock(latency_mutex);
        latencies_us.insert(latencies_us.end(), local_us.begin(), local_us.end());
      });
    }
    for (auto& t : threads) t.join();
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  const double total_requests =
      static_cast<double>(state.iterations() * clients * kRequestsPerClient);
  state.SetItemsProcessed(static_cast<int64_t>(total_requests));
  state.counters["requests_per_s"] =
      benchmark::Counter(total_requests, benchmark::Counter::kIsRate);
  state.counters["p50_us"] = percentile(latencies_us, 0.50);
  state.counters["p99_us"] = percentile(latencies_us, 0.99);
  state.counters["replicas"] = static_cast<double>(replicas);
}

}  // namespace

BENCHMARK(bench_serve_serial_single)->Unit(benchmark::kMicrosecond);

// {clients, max_batch, worker_threads, burst, pad, precision}: the batching
// sweep (1 worker, parallel kernels), the thread-scaling sweep (serial
// contexts), the pipelined-client sweep (burst > 1) with and without
// fixed-shape padding, and the quantized lanes (precision 1 = int8,
// 2 = int16) against their f64 twin rows.
BENCHMARK(bench_serve_batched)
    ->Args({1, 1, 1, 1, 0, 0})    // no batching, one client: queue overhead reference
    ->Args({4, 1, 1, 1, 0, 0})    // concurrency without batching
    ->Args({4, 8, 1, 1, 0, 0})    // dynamic batching kicks in
    ->Args({8, 8, 1, 1, 0, 0})
    ->Args({8, 8, 1, 8, 0, 0})    // pipelined clients: batches actually fill
    ->Args({8, 8, 1, 8, 0, 1})    // ... the same lane served int8
    ->Args({8, 8, 1, 8, 0, 2})    // ... and at the int16 middle tier
    ->Args({8, 8, 1, 8, 1, 0})    // + fixed-shape padding (pad_to_batch = 8)
    ->Args({8, 32, 1, 8, 0, 0})
    ->Args({8, 8, 2, 8, 0, 0})    // two serial-context workers, pipelined
    ->Args({16, 32, 2, 8, 1, 0})
    ->Args({16, 32, 2, 8, 1, 1})  // padded int8 at the deepest sweep point
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// Observability-enabled twins of two plain rows above (same args, separate
// benchmark name so existing row names stay stable for cross-commit
// comparison): p50_us here vs the matching bench_serve_batched row is the
// metrics+tracing overhead.
BENCHMARK(bench_serve_batched_obs)
    ->Args({8, 8, 1, 8, 0, 0})
    ->Args({8, 8, 2, 8, 0, 0})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// {bulk_clients, interactive_clients, models, max_batch}: lane isolation
// under saturation, single- and multi-model.
BENCHMARK(bench_serve_lanes)
    ->Args({4, 2, 1, 8})   // one bundle, saturated bulk + sparse interactive
    ->Args({4, 2, 2, 8})   // two bundles behind the same worker pool
    ->Args({8, 2, 2, 16})  // deeper saturation, larger batches
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// {clients, replicas, max_batch, burst}: the wire-protocol round trip —
// single replica vs sharded, pipelined clients so batches still form
// through the socket. Compared warn-only across commits (wall-clock noise
// on shared runners), with the matching in-process rows as the overhead
// reference.
BENCHMARK(bench_serve_net)
    ->Args({4, 1, 8, 8})   // one replica: pure wire overhead vs in-process
    ->Args({4, 2, 8, 8})   // sharded across two replicas
    ->Args({8, 2, 8, 8})   // more connections than replicas
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

DLPIC_BENCHMARK_MAIN("serving");
