/// \file test_chaos.cpp
/// Chaos suite for the serving stack, driven by the deterministic
/// fault-injection seam (util/fault_injection.hpp). Each test turns on one
/// (or several) injection sites and asserts the guarantees that must hold
/// for ANY fault schedule, i.e. for any DLPIC_FAULT_SEED — CI runs the
/// whole file under TSan with a seed matrix:
///   - no promise is ever lost: every accepted future resolves, with a
///     value or an exception, even when workers die mid-batch;
///   - survivors keep the bitwise contract: a value delivered under chaos
///     is bitwise identical to the serial single-sample reference;
///   - accounting closes exactly: accepted == requests + drained in every
///     run, and requests == served + expired + rejected in every snapshot;
///   - the metrics/trace surface stays scrapable (and exact at quiesce).
/// The exact-accounting test at the end runs fault-free and pins the whole
/// observability surface (stats, per-model stats, histograms, Prometheus,
/// JSON, trace ring) to exact expected values.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "math/rng.hpp"
#include "nn/execution_context.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "serve/inference_server.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace dlpic;
using serve::InferenceServer;
using serve::Priority;
using serve::ServerConfig;
using serve::ServerStats;
using util::FaultInjector;
using util::FaultSite;
using util::InjectedFault;
using util::ScopedFaultInjection;

constexpr size_t kInputDim = 48;
constexpr size_t kOutputDim = 12;

nn::Sequential make_model(uint64_t seed) {
  nn::MlpSpec spec;
  spec.input_dim = kInputDim;
  spec.output_dim = kOutputDim;
  spec.hidden = 64;
  spec.depth = 3;
  spec.seed = seed;
  return nn::build_mlp(spec);
}

std::vector<std::vector<double>> make_samples(size_t count, uint64_t seed) {
  math::Rng rng(seed);
  std::vector<std::vector<double>> samples(count);
  for (auto& s : samples) {
    s.resize(kInputDim);
    for (auto& v : s) v = rng.uniform(0.0, 10.0);
  }
  return samples;
}

std::vector<std::vector<double>> serial_reference(
    nn::Sequential& model, const std::vector<std::vector<double>>& in) {
  nn::ExecutionContext ctx(/*worker_cap=*/1);
  std::vector<std::vector<double>> out(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    nn::Tensor x({1, kInputDim});
    std::copy(in[i].begin(), in[i].end(), x.data());
    out[i] = model.predict(ctx, x).vec();
  }
  return out;
}

/// Arms the process injector for one chaos test: keeps whatever seed the
/// environment (CI's DLPIC_FAULT_SEED matrix) configured, but restarts the
/// schedule at tick 0 with only this test's sites enabled. The guard this
/// rides under restores everything afterwards.
void arm_faults(std::initializer_list<std::pair<FaultSite, double>> sites) {
  FaultInjector& fi = FaultInjector::instance();
  fi.disable_all();
  fi.set_seed(fi.seed());  // same schedule, counters back to tick 0
  for (const auto& [site, p] : sites) fi.set_probability(site, p);
}

struct Submitted {
  std::future<std::vector<double>> future;
  size_t sample = 0;
};

/// Collects every submitted future with a bounded wait (a lost promise
/// hangs forever otherwise) and checks the bitwise contract on values.
/// Accumulates into *values / *errors; fails the test on a timeout.
void settle_all(std::vector<Submitted>& submitted,
                const std::vector<std::vector<double>>& expected, size_t* values,
                size_t* errors) {
  for (auto& s : submitted) {
    ASSERT_EQ(s.future.wait_for(std::chrono::seconds(60)), std::future_status::ready)
        << "lost promise: a submitted future never resolved";
    try {
      const std::vector<double> y = s.future.get();
      ASSERT_EQ(y.size(), kOutputDim);
      // Bitwise: chaos must never degrade a delivered value.
      for (size_t j = 0; j < kOutputDim; ++j)
        ASSERT_EQ(y[j], expected[s.sample][j]) << "sample " << s.sample << " dim " << j;
      ++*values;
    } catch (const std::exception&) {
      ++*errors;
    }
  }
}

// An injected fault in run_batch takes the exact path of a real forward-pass
// failure: every promise of the batch receives the InjectedFault, survivors
// of other batches stay bitwise-correct, and forward_errors counts every hit.
TEST(ServingChaos, ForwardFaultsResolveEveryPromise) {
  ScopedFaultInjection guard;
  arm_faults({{FaultSite::kBatcherRunBatch, 0.3}});

  nn::Sequential model = make_model(201);
  const auto samples = make_samples(16, 17);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.worker_threads = 2;
  cfg.context_worker_cap = 1;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100;
  InferenceServer server(model, kInputDim, cfg);

  constexpr size_t kRequests = 400;
  std::vector<Submitted> submitted;
  math::Rng rng(3);
  for (size_t i = 0; i < kRequests; ++i) {
    const size_t sample = static_cast<size_t>(rng.uniform(0.0, 15.999));
    serve::SubmitOptions options;
    options.priority = (i % 3 == 0) ? Priority::kInteractive : Priority::kBulk;
    submitted.push_back({server.submit(samples[sample], options), sample});
  }
  server.shutdown();

  size_t values = 0, errors = 0;
  size_t injected_faults = 0;
  for (auto& s : submitted) {
    ASSERT_EQ(s.future.wait_for(std::chrono::seconds(60)), std::future_status::ready);
    try {
      const std::vector<double> y = s.future.get();
      for (size_t j = 0; j < kOutputDim; ++j) ASSERT_EQ(y[j], expected[s.sample][j]);
      ++values;
    } catch (const InjectedFault& fault) {
      EXPECT_EQ(fault.site(), FaultSite::kBatcherRunBatch);
      ++errors;
      ++injected_faults;
    } catch (const std::exception&) {
      ++errors;
    }
  }
  EXPECT_EQ(values + errors, kRequests);

  // >= 100 batches drew the fault at p = 0.3: the chance that no batch was
  // ever hit is < 1e-15 for any seed, so the chaos path really ran.
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.forward_errors, 0u);
  EXPECT_GT(injected_faults, 0u);
  EXPECT_EQ(stats.requests + stats.drained, kRequests);
  EXPECT_EQ(stats.requests, stats.served + stats.expired + stats.rejected);
  // served counts requests that RODE a forward pass (even one that threw):
  // the successfully delivered values can never exceed it.
  EXPECT_LE(values, stats.served);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(server.model_stats(0).forward_errors, stats.forward_errors);
}

// Injected deaths in the worker loop (and at pop) kill workers one by one;
// survivors keep draining, and shutdown() fails whatever the dead pool left
// behind. Every accepted request resolves; accounting closes with drained.
TEST(ServingChaos, WorkerDeathsNeverLoseAPromise) {
  ScopedFaultInjection guard;

  nn::Sequential model = make_model(202);
  const auto samples = make_samples(16, 19);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.worker_threads = 3;
  cfg.context_worker_cap = 1;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100;
  InferenceServer server(model, kInputDim, cfg);
  EXPECT_EQ(server.live_workers(), 3u);
  // Arm AFTER construction: the worker loops draw the death site on every
  // iteration, so arming first could kill a worker before the check above.
  arm_faults({{FaultSite::kServerWorker, 0.15}, {FaultSite::kQueuePop, 0.05}});

  constexpr size_t kProducers = 3;
  constexpr size_t kPerProducer = 150;
  std::vector<std::vector<Submitted>> submitted(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      math::Rng rng(50 + p);
      for (size_t i = 0; i < kPerProducer; ++i) {
        const size_t sample = static_cast<size_t>(rng.uniform(0.0, 15.999));
        submitted[p].push_back({server.submit(samples[sample]), sample});
      }
    });
  for (auto& t : producers) t.join();
  server.shutdown();
  EXPECT_EQ(server.live_workers(), 0u);

  size_t values = 0, errors = 0;
  for (auto& mine : submitted) settle_all(mine, expected, &values, &errors);
  EXPECT_EQ(values + errors, kProducers * kPerProducer);

  // Workers draw the death site on every loop iteration: at p = 0.15 over a
  // 450-request run the probability that NO death ever fired is negligible
  // for any seed — so the drain path really executed...
  FaultInjector& fi = FaultInjector::instance();
  EXPECT_GT(fi.injected(FaultSite::kServerWorker) + fi.injected(FaultSite::kQueuePop), 0u);
  // ...and the books still close: whatever the dead pool never popped was
  // failed by shutdown's drain.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests + stats.drained, kProducers * kPerProducer);
  EXPECT_EQ(stats.requests, stats.served + stats.expired + stats.rejected);
  EXPECT_EQ(values, stats.served);
  GTEST_LOG_(INFO) << "served=" << stats.served << " drained=" << stats.drained
                   << " worker_deaths=" << fi.injected(FaultSite::kServerWorker)
                   << "+" << fi.injected(FaultSite::kQueuePop);
}

// Backpressure storm: a bounded queue, producers racing injected push
// faults, and half the futures deliberately abandoned. Abandoning a future
// must never wedge the server, and a submit() that threw must not have
// consumed a queue slot (the accounting proves it: accepted == popped).
TEST(ServingChaos, BackpressureStormWithPushFaultsAndAbandonedFutures) {
  ScopedFaultInjection guard;
  arm_faults({{FaultSite::kQueuePush, 0.1}});

  nn::Sequential model = make_model(203);
  const auto samples = make_samples(16, 23);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.worker_threads = 2;
  cfg.context_worker_cap = 1;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100;
  cfg.queue_capacity = 32;  // storm against real backpressure
  InferenceServer server(model, kInputDim, cfg);

  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 120;
  std::vector<std::vector<Submitted>> kept(kProducers);
  std::atomic<size_t> accepted{0};
  std::atomic<size_t> push_faults{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      math::Rng rng(70 + p);
      for (size_t i = 0; i < kPerProducer; ++i) {
        const size_t sample = static_cast<size_t>(rng.uniform(0.0, 15.999));
        try {
          auto future = server.submit(samples[sample]);
          accepted.fetch_add(1, std::memory_order_relaxed);
          // Abandon every other future: the client walked away, the server
          // must still serve (or fail) the request without anyone waiting.
          if (i % 2 == 0) kept[p].push_back({std::move(future), sample});
        } catch (const InjectedFault&) {
          push_faults.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (auto& t : producers) t.join();
  server.shutdown();

  size_t kept_values = 0, kept_errors = 0;
  for (auto& mine : kept) settle_all(mine, expected, &kept_values, &kept_errors);
  // ~480 submits at p = 0.1: some faults fired (P[none] < 1e-20 per seed),
  // and every fault bounced the submission BEFORE it consumed a queue slot.
  EXPECT_GT(push_faults.load(), 0u);
  EXPECT_EQ(push_faults.load() + accepted.load(), kProducers * kPerProducer);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests + stats.drained, accepted.load());
  EXPECT_EQ(stats.requests, stats.served + stats.expired + stats.rejected);
}

// add_model under saturation: models registered while the pool is saturated
// become servable immediately, duplicate names are rejected without hurting
// traffic, and per-model accounting stays exact per model.
TEST(ServingChaos, RegistryGrowsUnderSaturation) {
  nn::Sequential base = make_model(204);
  nn::Sequential late[3] = {make_model(205), make_model(206), make_model(207)};
  const auto samples = make_samples(16, 29);
  const auto expected_base = serial_reference(base, samples);
  std::vector<std::vector<double>> expected_late[3];
  for (size_t m = 0; m < 3; ++m) expected_late[m] = serial_reference(late[m], samples);

  ServerConfig cfg;
  cfg.worker_threads = 2;
  cfg.context_worker_cap = 1;
  cfg.max_batch = 8;
  cfg.max_wait_us = 200;
  InferenceServer server(cfg);
  const size_t base_id = server.add_model("base", base, kInputDim);

  std::atomic<bool> stop{false};
  std::vector<Submitted> base_submitted;
  std::thread base_producer([&] {
    math::Rng rng(90);
    while (!stop.load(std::memory_order_acquire)) {
      const size_t sample = static_cast<size_t>(rng.uniform(0.0, 15.999));
      serve::SubmitOptions options;
      options.model_id = base_id;
      base_submitted.push_back({server.submit(samples[sample], options), sample});
      if (base_submitted.size() >= 600) break;  // bounded even if adds are instant
    }
  });

  // Registry growth mid-traffic, plus the rejection paths.
  size_t late_ids[3];
  for (size_t m = 0; m < 3; ++m)
    late_ids[m] = server.add_model("late" + std::to_string(m), late[m], kInputDim);
  EXPECT_THROW(server.add_model("base", late[0], kInputDim), std::invalid_argument);
  serve::ModelConfig bad;
  bad.max_batch = 0;
  EXPECT_THROW(server.add_model("bad", late[0], kInputDim, bad), std::invalid_argument);

  std::vector<Submitted> late_submitted[3];
  for (size_t i = 0; i < 60; ++i) {
    const size_t m = i % 3;
    serve::SubmitOptions options;
    options.model_id = late_ids[m];
    options.priority = Priority::kInteractive;
    late_submitted[m].push_back({server.submit(samples[i % 16], options), i % 16});
  }
  stop.store(true, std::memory_order_release);
  base_producer.join();
  server.shutdown();

  size_t base_values = 0, base_errors = 0;
  settle_all(base_submitted, expected_base, &base_values, &base_errors);
  EXPECT_EQ(base_errors, 0u);
  for (size_t m = 0; m < 3; ++m) {
    size_t v = 0, e = 0;
    settle_all(late_submitted[m], expected_late[m], &v, &e);
    EXPECT_EQ(v, 20u);
    EXPECT_EQ(e, 0u);
    EXPECT_EQ(server.model_stats(late_ids[m]).served, 20u);
    EXPECT_EQ(server.model_stats(late_ids[m]).name, "late" + std::to_string(m));
  }
  EXPECT_EQ(server.model_stats(base_id).served, base_values);
  EXPECT_EQ(server.model_count(), 4u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, base_values + 60);
  // The failed add_model calls never became scrape entries.
  EXPECT_EQ(server.metrics().model_count(), 4u);
}

// Everything at once, over three server lifetimes (construct, serve under
// chaos, shut down): push, pop, batcher and worker faults all armed while a
// scraper thread hammers the exposition surface. The invariants must
// survive any schedule AND any interleaving, in every lifetime.
TEST(ServingChaos, MixedChaosSoakAcrossServerLifetimesStaysAccountable) {
  ScopedFaultInjection guard;

  nn::Sequential model = make_model(208);
  const auto samples = make_samples(16, 31);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.worker_threads = 3;
  cfg.context_worker_cap = 1;
  cfg.max_batch = 8;
  cfg.max_wait_us = 100;
  // Unbounded queue: with worker deaths armed the whole pool can die, and a
  // full bounded queue would then block producers forever (nothing pops and
  // nothing closes the queue until they join). Backpressure chaos runs in
  // its own test above with the workers kept alive.
  cfg.queue_capacity = 0;
  cfg.trace_capacity = 512;

  for (int cycle = 0; cycle < 3; ++cycle) {
    // Each cycle is a fresh server, built before the faults are armed.
    InferenceServer server(model, kInputDim, cfg);
    arm_faults({{FaultSite::kQueuePush, 0.02},
                {FaultSite::kQueuePop, 0.02},
                {FaultSite::kBatcherRunBatch, 0.05},
                {FaultSite::kServerWorker, 0.02}});

    std::atomic<bool> stop_scraper{false};
    std::atomic<size_t> scrape_violations{0};
    std::thread scraper([&] {
      while (!stop_scraper.load(std::memory_order_acquire)) {
        // The scrape surface must stay coherent mid-chaos: the server totals
        // rendered into the text come from coherent snapshots.
        const ServerStats s = server.stats();
        if (s.requests != s.served + s.expired + s.rejected)
          scrape_violations.fetch_add(1, std::memory_order_relaxed);
        const std::string text = server.metrics_prometheus();
        if (text.find("dlpic_server_requests_total") == std::string::npos)
          scrape_violations.fetch_add(1, std::memory_order_relaxed);
        (void)server.metrics_json();
        (void)server.trace_snapshot();
      }
    });

    constexpr size_t kProducers = 3;
    constexpr size_t kPerProducer = 100;
    std::vector<std::vector<Submitted>> submitted(kProducers);
    std::atomic<size_t> accepted{0};
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p)
      producers.emplace_back([&, p, cycle] {
        math::Rng rng(110 + static_cast<uint64_t>(cycle) * 10 + p);
        for (size_t i = 0; i < kPerProducer; ++i) {
          const size_t sample = static_cast<size_t>(rng.uniform(0.0, 15.999));
          serve::SubmitOptions options;
          options.priority = (i % 3 == 0) ? Priority::kInteractive : Priority::kBulk;
          options.trace = (i % 4 == 0);
          if (i % 11 == 0)
            options.deadline =
                std::chrono::steady_clock::now() + std::chrono::microseconds(50);
          try {
            submitted[p].push_back({server.submit(samples[sample], options), sample});
            accepted.fetch_add(1, std::memory_order_relaxed);
          } catch (const InjectedFault&) {
          } catch (const std::runtime_error&) {
            // Queue already closed by a racing cycle end — never happens
            // here (shutdown comes after join), but keep parity with prod
            // clients that must tolerate it.
          }
        }
      });
    for (auto& t : producers) t.join();
    server.shutdown();
    stop_scraper.store(true, std::memory_order_release);
    scraper.join();

    size_t values = 0, errors = 0;
    for (auto& mine : submitted) {
      for (auto& s : mine) {
        ASSERT_EQ(s.future.wait_for(std::chrono::seconds(60)), std::future_status::ready)
            << "lost promise in cycle " << cycle;
        try {
          const std::vector<double> y = s.future.get();
          for (size_t j = 0; j < kOutputDim; ++j) ASSERT_EQ(y[j], expected[s.sample][j]);
          ++values;
        } catch (const std::exception&) {
          ++errors;
        }
      }
    }
    EXPECT_EQ(values + errors, accepted.load());
    EXPECT_EQ(scrape_violations.load(), 0u);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests + stats.drained, accepted.load());
    EXPECT_EQ(stats.requests, stats.served + stats.expired + stats.rejected);
    // served counts requests that rode a forward pass; a run_batch fault
    // fails a whole "served" batch, so delivered values can only trail it.
    EXPECT_LE(values, stats.served);
    GTEST_LOG_(INFO) << "cycle " << cycle << ": accepted=" << accepted.load()
                     << " served=" << stats.served << " expired=" << stats.expired
                     << " drained=" << stats.drained;

    // Quiesce injection so the next server starts fault-free.
    FaultInjector::instance().disable_all();
  }

  // After three chaos laps a fresh server still serves perfectly clean.
  InferenceServer server(model, kInputDim, cfg);
  std::vector<Submitted> clean;
  for (size_t i = 0; i < 32; ++i) clean.push_back({server.submit(samples[i % 16]), i % 16});
  server.shutdown();
  size_t v = 0, e = 0;
  settle_all(clean, expected, &v, &e);
  EXPECT_EQ(v, 32u);
  EXPECT_EQ(e, 0u);
}

// Fault-free exactness: with no chaos, every observable — aggregate stats,
// per-model/per-lane counters, latency histograms, both exposition formats
// and the trace ring — pins to exact expected values at quiesce. This is
// the "exact metrics accounting" half of the chaos contract: chaos tests
// prove closure under fire, this proves the numbers themselves.
TEST(ServingChaos, ExactAccountingAndTracesAtQuiesce) {
  ScopedFaultInjection guard;
  FaultInjector::instance().disable_all();

  nn::Sequential model = make_model(209);
  const auto samples = make_samples(16, 37);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.worker_threads = 1;  // single worker: deterministic pop order
  cfg.context_worker_cap = 1;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100;
  cfg.trace_capacity = 256;
  InferenceServer server(model, kInputDim, cfg);

  constexpr size_t kServed = 64;
  constexpr size_t kPreExpired = 16;
  std::vector<Submitted> submitted;
  std::vector<std::future<std::vector<double>>> expired_futures;
  for (size_t i = 0; i < kServed + kPreExpired; ++i) {
    serve::SubmitOptions options;
    options.trace = true;
    options.priority = (i % 2 == 0) ? Priority::kInteractive : Priority::kBulk;
    if (i % 5 == 4 && expired_futures.size() < kPreExpired) {
      options.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
      expired_futures.push_back(server.submit(samples[i % 16], options));
    } else {
      submitted.push_back({server.submit(samples[i % 16], options), i % 16});
    }
  }
  ASSERT_EQ(expired_futures.size(), kPreExpired);
  ASSERT_EQ(submitted.size(), kServed);
  server.shutdown();

  size_t values = 0, errors = 0;
  settle_all(submitted, expected, &values, &errors);
  EXPECT_EQ(values, kServed);
  EXPECT_EQ(errors, 0u);
  for (auto& f : expired_futures) EXPECT_THROW(f.get(), serve::DeadlineExpired);

  // Aggregate counters: exact.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kServed + kPreExpired);
  EXPECT_EQ(stats.served, kServed);
  EXPECT_EQ(stats.expired, kPreExpired);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.forward_errors, 0u);
  EXPECT_EQ(stats.drained, 0u);
  EXPECT_LE(stats.max_batch_observed, 4u);
  EXPECT_GE(stats.mean_batch(), 1.0);

  // Per-model and per-lane: lanes partition served, histogram count equals
  // served exactly once traffic quiesced, and every sample's latency is a
  // positive sub-minute duration.
  const serve::ModelStats m = server.model_stats(0);
  EXPECT_EQ(m.name, "default");
  EXPECT_EQ(m.served, kServed);
  EXPECT_EQ(m.expired, kPreExpired);
  size_t lane_served = 0, histogram_count = 0;
  uint64_t histogram_sum = 0;
  for (size_t lane = 0; lane < serve::kNumLanes; ++lane) {
    lane_served += m.lanes[lane].served;
    histogram_count += m.lanes[lane].latency.count;
    histogram_sum += m.lanes[lane].latency.sum_us;
    uint64_t bucket_total = 0;
    for (uint64_t b : m.lanes[lane].latency.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, m.lanes[lane].latency.count);
  }
  EXPECT_EQ(lane_served, kServed);
  EXPECT_EQ(histogram_count, kServed);
  EXPECT_GT(histogram_sum, 0u);

  // Exposition formats carry the same exact numbers.
  const std::string text = server.metrics_prometheus();
  EXPECT_NE(text.find("dlpic_server_requests_total " + std::to_string(kServed + kPreExpired)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dlpic_server_served_total " + std::to_string(kServed)),
            std::string::npos);
  EXPECT_NE(text.find("dlpic_server_expired_total " + std::to_string(kPreExpired)),
            std::string::npos);
  EXPECT_NE(text.find("dlpic_queue_depth{lane=\"interactive\"} 0"), std::string::npos);
  const std::string json = server.metrics_json();
  EXPECT_NE(json.find("\"served\": " + std::to_string(kServed)), std::string::npos);

  // Trace ring: every request was traced, none dropped (single-threaded
  // submission into a 256-slot ring), and each record's stamps are complete
  // and monotone in pipeline order.
  EXPECT_EQ(server.trace_ring().dropped(), 0u);
  std::vector<serve::TraceRecord> traces = server.trace_snapshot();
  ASSERT_EQ(traces.size(), kServed + kPreExpired);
  size_t traced_served = 0, traced_expired = 0;
  std::vector<uint64_t> seqs;
  for (const serve::TraceRecord& r : traces) {
    seqs.push_back(r.seq);
    EXPECT_EQ(r.model_id, 0u);
    EXPECT_LT(r.lane, serve::kNumLanes);
    if (r.outcome == serve::TraceOutcome::kServed) {
      ++traced_served;
      // Served requests stamp every stage, in timeline order.
      for (size_t s = 1; s < serve::kNumTraceStages; ++s) {
        EXPECT_NE(r.ts_ns[s], 0) << "stage " << s << " unstamped";
        EXPECT_GE(r.ts_ns[s], r.ts_ns[s - 1]) << "stage " << s << " out of order";
      }
      EXPECT_GT(r.total_ns(), 0);
      EXPECT_GT(r.stage_ns(serve::TraceStage::kForward, serve::TraceStage::kScatter), 0);
    } else {
      EXPECT_EQ(r.outcome, serve::TraceOutcome::kExpired);
      ++traced_expired;
      // Expired requests die before assembly: submit/enqueue/pop stamped,
      // the forward-pass stages never are.
      EXPECT_NE(r.ts_ns[static_cast<size_t>(serve::TraceStage::kPop)], 0);
      EXPECT_EQ(r.ts_ns[static_cast<size_t>(serve::TraceStage::kForward)], 0);
      EXPECT_EQ(r.ts_ns[static_cast<size_t>(serve::TraceStage::kScatter)], 0);
    }
  }
  EXPECT_EQ(traced_served, kServed);
  EXPECT_EQ(traced_expired, kPreExpired);
  std::sort(seqs.begin(), seqs.end());
  for (size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);  // dense, unique
}

}  // namespace
