/// \file test_serving.cpp
/// End-to-end serving correctness: batched inference is bitwise identical to
/// single-sample serial inference (the batcher's determinism contract) under
/// concurrent producers — including multi-model hosting (a batch never mixes
/// models), priority lanes and per-request deadlines (expired requests fail
/// with DeadlineExpired and never buy a forward pass) — graceful shutdown
/// serves every in-flight request, and the max_wait window flushes partial
/// batches. Also covers DlFieldSolver bundles registered on a server (one
/// solver, and several on one shared server) against the solver's
/// synchronous path. The adversarial saturation soak lives in
/// test_serving_stress.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dl_field_solver.hpp"
#include "math/rng.hpp"
#include "nn/dense.hpp"
#include "nn/execution_context.hpp"
#include "nn/quantize.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "serve/inference_server.hpp"

namespace {

using namespace dlpic;
using serve::InferenceServer;
using serve::ServerConfig;

constexpr size_t kInputDim = 64;
constexpr size_t kOutputDim = 16;

nn::Sequential make_model(uint64_t seed = 7, size_t output_dim = kOutputDim) {
  nn::MlpSpec spec;
  spec.input_dim = kInputDim;
  spec.output_dim = output_dim;
  spec.hidden = 32;
  spec.depth = 2;
  spec.seed = seed;
  return nn::build_mlp(spec);
}

std::vector<std::vector<double>> make_samples(size_t count, uint64_t seed = 99) {
  math::Rng rng(seed);
  std::vector<std::vector<double>> samples(count);
  for (auto& s : samples) {
    s.resize(kInputDim);
    for (auto& v : s) v = rng.uniform(0.0, 100.0);
  }
  return samples;
}

/// Reference path: one sample at a time on a fully serial context.
std::vector<std::vector<double>> serial_reference(nn::Sequential& model,
                                                  const std::vector<std::vector<double>>& in) {
  nn::ExecutionContext ctx(/*worker_cap=*/1);
  std::vector<std::vector<double>> out(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    nn::Tensor x({1, kInputDim});
    std::copy(in[i].begin(), in[i].end(), x.data());
    out[i] = model.predict(ctx, x).vec();
  }
  return out;
}

TEST(InferenceServer, BatchedMatchesSerialSingleSampleBitwise) {
  auto model = make_model();
  const size_t kClients = 4, kPerClient = 8;
  auto samples = make_samples(kClients * kPerClient);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 50'000;  // generous window so real batches form
  cfg.worker_threads = 2;
  InferenceServer server(model, kInputDim, cfg);

  // Concurrent producers: each client submits its slice and keeps the
  // futures in submission order.
  std::vector<std::vector<std::future<std::vector<double>>>> futures(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      futures[c].reserve(kPerClient);
      for (size_t i = 0; i < kPerClient; ++i)
        futures[c].push_back(server.submit(samples[c * kPerClient + i]));
    });
  }
  for (auto& t : clients) t.join();

  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < kPerClient; ++i) {
      const auto result = futures[c][i].get();
      const auto& reference = expected[c * kPerClient + i];
      ASSERT_EQ(result.size(), reference.size());
      for (size_t k = 0; k < result.size(); ++k)
        ASSERT_EQ(result[k], reference[k])
            << "client " << c << " sample " << i << " element " << k
            << " differs from serial single-sample inference";
    }
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_GT(stats.max_batch_observed, 1u) << "no batching happened";
  EXPECT_LE(stats.max_batch_observed, cfg.max_batch);
}

TEST(InferenceServer, GracefulShutdownServesInFlightRequests) {
  auto model = make_model();
  auto samples = make_samples(5, 123);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.max_batch = 64;           // never fills
  cfg.max_wait_us = 5'000'000;  // the batch window would hold for 5 s
  InferenceServer server(model, kInputDim, cfg);

  std::vector<std::future<std::vector<double>>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));

  // Shutdown long before the window closes: the queue must drain and every
  // future must resolve with a real result.
  server.shutdown();
  EXPECT_FALSE(server.running());
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(futures[i].get(), expected[i]);
  }
  EXPECT_THROW((void)server.submit(samples[0]), std::runtime_error);
  server.shutdown();  // idempotent
}

TEST(InferenceServer, MaxWaitFlushesPartialBatch) {
  auto model = make_model();
  auto samples = make_samples(3, 456);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.max_batch = 64;         // cannot fill from 3 requests
  cfg.max_wait_us = 100'000;  // 100 ms window, then partial flush
  InferenceServer server(model, kInputDim, cfg);

  std::vector<std::future<std::vector<double>>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "partial batch was never flushed";
    EXPECT_EQ(futures[i].get(), expected[i]);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_GE(stats.batches, 1u);
}

/// The constructor starts the batcher before it registers the model, and a
/// batcher takes its batching policy before it waits for a request. So the
/// first batch after construction may be popped with the no-model policy
/// (one request, no window). A restart starts the batcher with the model in
/// place, for tests that need the first batch to fill.
void restart_with_model_registered(InferenceServer& server) {
  server.shutdown();
  server.restart();
}

// The batcher fulfils each lane youngest-first, so a waiter that takes its
// futures in FIFO order wakes once per batch: when the oldest row of a lane
// is ready, every younger row of that lane is too.
TEST(DynamicBatcher, OldestRowOfALaneIsFulfilledLast) {
  auto model = make_model();
  constexpr size_t kBatch = 8;
  const auto samples = make_samples(kBatch, 4242);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.max_batch = kBatch;
  cfg.max_wait_us = 5'000'000;  // the batch closes when full, not on time
  cfg.worker_threads = 1;       // a second batcher would split the batch
  InferenceServer server(model, kInputDim, cfg);
  restart_with_model_registered(server);

  std::vector<std::future<std::vector<double>>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));
  const auto first = futures[0].get();
  for (size_t i = 1; i < kBatch; ++i)
    EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "row " << i << " was not ready when the oldest row was";
  EXPECT_EQ(first, expected[0]);
  for (size_t i = 1; i < kBatch; ++i) EXPECT_EQ(futures[i].get(), expected[i]) << "row " << i;
  EXPECT_EQ(server.stats().batches, 1u);
}

// In a mixed-lane batch every interactive row is ready before the first
// bulk row is, even when the bulk rows were collected first.
TEST(DynamicBatcher, InteractiveRowsAreFulfilledBeforeBulkRows) {
  auto model = make_model();
  constexpr size_t kPerLane = 4;
  const auto samples = make_samples(2 * kPerLane, 4343);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.max_batch = 2 * kPerLane;
  cfg.max_wait_us = 5'000'000;
  cfg.worker_threads = 1;
  InferenceServer server(model, kInputDim, cfg);
  restart_with_model_registered(server);

  serve::SubmitOptions bulk, interactive;
  bulk.priority = serve::Priority::kBulk;
  interactive.priority = serve::Priority::kInteractive;
  std::vector<std::future<std::vector<double>>> bulk_futures, interactive_futures;
  for (size_t i = 0; i < kPerLane; ++i)
    bulk_futures.push_back(server.submit(samples[i], bulk));
  // Give the batcher time to take the bulk rows into its batch first.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (size_t i = 0; i < kPerLane; ++i)
    interactive_futures.push_back(server.submit(samples[kPerLane + i], interactive));

  // Youngest-first makes the last bulk row the first one set.
  const auto youngest_bulk = bulk_futures.back().get();
  for (size_t i = 0; i < kPerLane; ++i)
    EXPECT_EQ(interactive_futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "interactive row " << i << " was not ready when a bulk row was";
  EXPECT_EQ(youngest_bulk, expected[kPerLane - 1]);
  for (size_t i = 0; i + 1 < kPerLane; ++i) EXPECT_EQ(bulk_futures[i].get(), expected[i]);
  for (size_t i = 0; i < kPerLane; ++i)
    EXPECT_EQ(interactive_futures[i].get(), expected[kPerLane + i]);
  EXPECT_EQ(server.stats().batches, 1u);
}

TEST(InferenceServer, SubmitValidatesInputSize) {
  auto model = make_model();
  InferenceServer server(model, kInputDim);
  EXPECT_THROW((void)server.submit(std::vector<double>(kInputDim - 1, 0.0)),
               std::invalid_argument);
}

TEST(InferenceServer, RejectsIncompatibleModelUpFront) {
  auto model = make_model();
  EXPECT_THROW(InferenceServer(model, kInputDim + 1), std::invalid_argument);
}

TEST(InferenceServer, ZeroWaitServesImmediately) {
  auto samples = make_samples(2, 777);
  auto reference_model = make_model(42);
  const auto expected = serial_reference(reference_model, samples);

  ServerConfig cfg;
  cfg.max_wait_us = 0;  // serve immediately
  auto model = make_model(42);
  InferenceServer server(model, kInputDim, cfg);
  for (size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(server.submit(samples[i]).get(), expected[i]);
}

TEST(InferenceServer, ManySerialWorkersStayBitwiseExact) {
  // Thread-level scaling mode: 4 batcher threads, each context pinned
  // serial. Results must still match the serial reference exactly.
  auto model = make_model();
  auto samples = make_samples(32, 888);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 1'000;
  cfg.worker_threads = 4;
  cfg.context_worker_cap = 1;
  InferenceServer server(model, kInputDim, cfg);

  std::vector<std::future<std::vector<double>>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));
  for (size_t i = 0; i < futures.size(); ++i) EXPECT_EQ(futures[i].get(), expected[i]);
}

TEST(DlFieldSolverServing, ServedMatchesSolveHistogramBitwise) {
  // A solver's model + normalizer registered on a server like any other
  // bundle: served results must match the solver's own synchronous path.
  phase_space::BinnerConfig bc;
  bc.nx = 8;
  bc.nv = 8;
  core::DlFieldSolver solver(make_model(11), data::MinMaxNormalizer(0.0, 100.0), bc);
  const auto histograms = make_samples(12, 5);
  std::vector<std::vector<double>> expected;
  for (const auto& h : histograms) expected.push_back(solver.solve_histogram(h));

  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 10'000;
  serve::InferenceServer server(solver.model(), bc.nx * bc.nv, cfg, &solver.normalizer());

  std::vector<std::future<std::vector<double>>> futures;
  for (const auto& h : histograms) futures.push_back(server.submit(h));
  for (size_t i = 0; i < futures.size(); ++i) EXPECT_EQ(futures[i].get(), expected[i]);
  EXPECT_GE(server.stats().requests, histograms.size());
}

TEST(DynamicBatcher, PaddingIsBitwiseNeutral) {
  // The same partial batch served with and without fixed-shape padding must
  // produce bitwise-identical rows: padded rows are computed independently
  // and dropped before the scatter.
  auto model = make_model(21);
  auto samples = make_samples(5, 999);  // 5 live rows, padded up to 16

  auto serve_with_pad = [&](size_t pad) {
    serve::RequestQueue queue;
    std::vector<std::future<std::vector<double>>> futures;
    for (const auto& s : samples) futures.push_back(queue.push(s));
    nn::ExecutionContext ctx(/*worker_cap=*/1);
    serve::ModelConfig mc;
    mc.max_batch = 16;
    mc.max_wait_us = 0;  // serve whatever is queued right now
    mc.pad_to_batch = pad;
    serve::ModelRegistry registry;
    registry.add("default", &model, kInputDim, mc, nullptr);
    serve::DynamicBatcher batcher(registry, ctx);
    EXPECT_EQ(batcher.serve_once(queue), samples.size());
    std::vector<std::vector<double>> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };

  const auto unpadded = serve_with_pad(0);
  const auto padded = serve_with_pad(16);
  ASSERT_EQ(unpadded.size(), padded.size());
  for (size_t i = 0; i < unpadded.size(); ++i) EXPECT_EQ(unpadded[i], padded[i]);

  // And the padded batch still matches the single-sample serial reference.
  const auto reference = serial_reference(model, samples);
  for (size_t i = 0; i < reference.size(); ++i) EXPECT_EQ(padded[i], reference[i]);
}

TEST(InferenceServer, PaddedServerMatchesSerialReferenceBitwise) {
  auto model = make_model(22);
  auto samples = make_samples(19, 1234);  // never a multiple of max_batch
  const auto expected = serial_reference(model, samples);

  InferenceServer server;
  serve::ModelConfig mc;
  mc.max_batch = 8;
  mc.pad_to_batch = 8;  // every forward pass runs at exactly 8 rows
  mc.max_wait_us = 1'000;
  server.add_model("padded", model, kInputDim, mc);

  std::vector<std::future<std::vector<double>>> futures;
  for (const auto& s : samples) futures.push_back(server.submit(s));
  for (size_t i = 0; i < futures.size(); ++i) EXPECT_EQ(futures[i].get(), expected[i]);
}

TEST(InferenceServer, MultiModelServesEachModelBitwiseAndNeverMixes) {
  // Two models with different seeds AND different output widths: a batch
  // that mixed models would either throw on the output shape or produce
  // rows from the wrong network — both caught by the bitwise comparison.
  auto model_a = make_model(31, kOutputDim);
  auto model_b = make_model(32, kOutputDim + 8);
  auto samples = make_samples(24, 2024);
  const auto expected_a = serial_reference(model_a, samples);
  const auto expected_b = serial_reference(model_b, samples);

  serve::ServerConfig cfg;
  cfg.worker_threads = 2;
  InferenceServer server(cfg);
  serve::ModelConfig mc;
  mc.max_batch = 8;
  mc.max_wait_us = 5'000;
  const size_t id_a = server.add_model("solver-a", model_a, kInputDim, mc);
  const size_t id_b = server.add_model("solver-b", model_b, kInputDim, mc);
  ASSERT_NE(id_a, id_b);
  EXPECT_EQ(server.model_count(), 2u);
  EXPECT_EQ(server.model_id("solver-b"), id_b);
  EXPECT_THROW((void)server.model_id("nope"), std::out_of_range);

  // Interleave the two models from concurrent producers.
  std::vector<std::future<std::vector<double>>> futures_a(samples.size());
  std::vector<std::future<std::vector<double>>> futures_b(samples.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < samples.size(); i += 4) {
        serve::SubmitOptions oa;
        oa.model_id = id_a;
        oa.priority = (i % 2 == 0) ? serve::Priority::kInteractive : serve::Priority::kBulk;
        futures_a[i] = server.submit(samples[i], oa);
        serve::SubmitOptions ob;
        ob.model_id = id_b;
        futures_b[i] = server.submit(samples[i], ob);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(futures_a[i].get(), expected_a[i]) << "model a, sample " << i;
    EXPECT_EQ(futures_b[i].get(), expected_b[i]) << "model b, sample " << i;
  }

  const auto stats_a = server.model_stats(id_a);
  const auto stats_b = server.model_stats(id_b);
  EXPECT_EQ(stats_a.served, samples.size());
  EXPECT_EQ(stats_b.served, samples.size());
  EXPECT_EQ(stats_a.expired, 0u);
  // Lane attribution: model a saw both lanes, model b only bulk.
  EXPECT_GT(stats_a.lanes[size_t(serve::Priority::kInteractive)].served, 0u);
  EXPECT_GT(stats_a.lanes[size_t(serve::Priority::kBulk)].served, 0u);
  EXPECT_EQ(stats_b.lanes[size_t(serve::Priority::kInteractive)].served, 0u);
  EXPECT_EQ(stats_b.lanes[size_t(serve::Priority::kBulk)].served, samples.size());
  EXPECT_LE(stats_a.max_batch_observed, mc.max_batch);
}

TEST(InferenceServer, ExpiredRequestFailsDistinctlyWithoutAForwardPass) {
  auto model = make_model(33);
  auto samples = make_samples(4, 555);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.max_wait_us = 20'000;
  InferenceServer server(model, kInputDim, cfg);

  // One request expired before submission, the rest fresh: the expired one
  // must resolve to DeadlineExpired while the batch it was popped with is
  // still served bitwise.
  serve::SubmitOptions expired;
  expired.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto dead = server.submit(samples[0], expired);
  std::vector<std::future<std::vector<double>>> live;
  for (size_t i = 1; i < samples.size(); ++i) live.push_back(server.submit(samples[i]));

  EXPECT_THROW(dead.get(), serve::DeadlineExpired);
  for (size_t i = 0; i < live.size(); ++i) EXPECT_EQ(live[i].get(), expected[i + 1]);

  const auto stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  const auto ms = server.model_stats(0);
  EXPECT_EQ(ms.expired, 1u);
  EXPECT_EQ(ms.served, samples.size() - 1);
  // The batches counter counts forward passes: the expired request must not
  // have bought one on its own.
  EXPECT_LE(ms.batches, samples.size() - 1);
}

TEST(InferenceServer, GenerousDeadlineIsServedNormally) {
  auto model = make_model(34);
  auto samples = make_samples(2, 556);
  const auto expected = serial_reference(model, samples);
  ServerConfig cfg;
  cfg.max_wait_us = 0;
  InferenceServer server(model, kInputDim, cfg);
  serve::SubmitOptions options;
  options.deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  options.priority = serve::Priority::kInteractive;
  for (size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(server.submit(samples[i], options).get(), expected[i]);
  EXPECT_EQ(server.stats().expired, 0u);
}

TEST(InferenceServer, SubmitValidatesModelId) {
  auto model = make_model();
  InferenceServer server(model, kInputDim);
  serve::SubmitOptions options;
  options.model_id = 7;
  EXPECT_THROW((void)server.submit(std::vector<double>(kInputDim, 0.0), options),
               std::invalid_argument);
}

TEST(InferenceServer, RejectsDuplicateModelNames) {
  auto model = make_model();
  InferenceServer server(model, kInputDim);  // registers "default"
  EXPECT_THROW((void)server.add_model("default", model, kInputDim),
               std::invalid_argument);
}

TEST(InferenceServer, AddModelWhileServingBecomesServable) {
  auto model_a = make_model(41);
  auto model_b = make_model(42);
  auto samples = make_samples(3, 557);
  const auto expected_b = serial_reference(model_b, samples);

  ServerConfig cfg;
  cfg.max_wait_us = 0;
  InferenceServer server(model_a, kInputDim, cfg);
  // Serve some traffic on model a first, then hot-register model b.
  (void)server.submit(samples[0]).get();
  const size_t id_b = server.add_model("late", model_b, kInputDim);
  serve::SubmitOptions options;
  options.model_id = id_b;
  for (size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(server.submit(samples[i], options).get(), expected_b[i]);
}

TEST(DlFieldSolverServing, SharedServerHostsSeveralSolvers) {
  // Two field-solver bundles behind ONE server/worker pool: each bundle's
  // served results must match its own solver's synchronous path bitwise.
  phase_space::BinnerConfig bc;
  bc.nx = 8;
  bc.nv = 8;
  core::DlFieldSolver solver_a(make_model(51, 16), data::MinMaxNormalizer(0.0, 100.0), bc);
  core::DlFieldSolver solver_b(make_model(52, 24), data::MinMaxNormalizer(0.0, 50.0), bc);
  const auto histograms = make_samples(10, 9);
  std::vector<std::vector<double>> expected_a, expected_b;
  for (const auto& h : histograms) {
    expected_a.push_back(solver_a.solve_histogram(h));
    expected_b.push_back(solver_b.solve_histogram(h));
  }

  serve::ServerConfig cfg;
  cfg.worker_threads = 2;
  serve::InferenceServer server(cfg);
  serve::ModelConfig mc;
  mc.max_batch = 4;
  mc.max_wait_us = 2'000;
  const size_t dim = bc.nx * bc.nv;
  const size_t id_a =
      server.add_model("solver-a", solver_a.model(), dim, mc, &solver_a.normalizer());
  const size_t id_b =
      server.add_model("solver-b", solver_b.model(), dim, mc, &solver_b.normalizer());
  ASSERT_NE(id_a, id_b);

  serve::SubmitOptions to_a, to_b;
  to_a.model_id = id_a;
  to_a.priority = serve::Priority::kInteractive;
  to_b.model_id = id_b;
  std::vector<std::future<std::vector<double>>> futures_a, futures_b;
  for (const auto& h : histograms) {
    futures_a.push_back(server.submit(h, to_a));
    futures_b.push_back(server.submit(h, to_b));
  }
  for (size_t i = 0; i < histograms.size(); ++i) {
    EXPECT_EQ(futures_a[i].get(), expected_a[i]) << "solver a, histogram " << i;
    EXPECT_EQ(futures_b[i].get(), expected_b[i]) << "solver b, histogram " << i;
  }
  EXPECT_EQ(server.model_stats(id_a).served, histograms.size());
  EXPECT_EQ(server.model_stats(id_b).served, histograms.size());
}

// ---------------------------------------------------------------------------
// Per-lane precision: one model served through two bundles, one f64 and one
// int8. The f64 bundle keeps the bitwise batched == serial contract; the
// int8 bundle is bitwise identical to *serial int8* inference (per-row
// quantization is batch-independent) and within the documented accuracy
// budget of the f64 output.

TEST(InferenceServer, PerLanePrecisionServesInt8WithinBudgetAndBitwiseVsSerialInt8) {
  auto model = make_model();
  const size_t kSamples = 24;
  auto samples = make_samples(kSamples, 311);
  const auto expected_f64 = serial_reference(model, samples);

  // Serial int8 reference: same precise weight cache construction the
  // registry performs at add_model, on a fully serial context.
  const nn::QuantizedWeightCache cache(model, nn::Precision::kInt8);
  std::vector<std::vector<double>> expected_int8(kSamples);
  {
    nn::ExecutionContext ctx(/*worker_cap=*/1);
    ctx.set_quantized_weights(&cache);
    for (size_t i = 0; i < kSamples; ++i) {
      nn::Tensor x({1, kInputDim});
      std::copy(samples[i].begin(), samples[i].end(), x.data());
      expected_int8[i] = model.predict(ctx, x).vec();
    }
  }

  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 20'000;
  cfg.worker_threads = 2;
  InferenceServer server(cfg);
  serve::ModelConfig f64_cfg = cfg.model_defaults();
  serve::ModelConfig int8_cfg = cfg.model_defaults();
  int8_cfg.precision = nn::Precision::kInt8;
  const size_t id_f64 = server.add_model("exact", model, kInputDim, f64_cfg);
  const size_t id_int8 = server.add_model("quantized", model, kInputDim, int8_cfg);

  std::vector<std::future<std::vector<double>>> f64_futures, int8_futures;
  for (size_t i = 0; i < kSamples; ++i) {
    serve::SubmitOptions opt;
    opt.model_id = id_f64;
    f64_futures.push_back(server.submit(samples[i], opt));
    opt.model_id = id_int8;
    int8_futures.push_back(server.submit(samples[i], opt));
  }

  for (size_t i = 0; i < kSamples; ++i) {
    // The f64 lane is untouched by int8 traffic on the same model.
    EXPECT_EQ(f64_futures[i].get(), expected_f64[i]) << "sample " << i;
    const auto got = int8_futures[i].get();
    ASSERT_EQ(got.size(), expected_int8[i].size());
    for (size_t k = 0; k < got.size(); ++k)
      ASSERT_EQ(got[k], expected_int8[i][k])
          << "int8 batched diverged from int8 serial at sample " << i;
  }

  // Accuracy budget of the int8 lane vs the f64 lane (see
  // docs/ARCHITECTURE.md "Precision & quantization": MAE <= 3% of RMS).
  double rms = 0.0, mae = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < kSamples; ++i)
    for (size_t k = 0; k < expected_f64[i].size(); ++k) {
      rms += expected_f64[i][k] * expected_f64[i][k];
      mae += std::abs(expected_f64[i][k] - expected_int8[i][k]);
      ++count;
    }
  rms = std::sqrt(rms / static_cast<double>(count));
  mae /= static_cast<double>(count);
  EXPECT_LE(mae, 0.03 * rms) << "int8 serving accuracy budget exceeded";
}

// ---------------------------------------------------------------------------
// The full precision ladder on a conv-containing model: one server hosts
// the SAME CNN through three bundles — f64, int16 and int8. Each quantized
// lane is bitwise identical to its serial single-sample reference (batch
// formation cannot change results), per-lane stats tick independently, and
// the measured accuracy ladder holds: int16 MAE <= int8 MAE <= budget.

TEST(InferenceServer, ThreeLanePrecisionLadderOnConvModel) {
  nn::CnnSpec spec;
  spec.input_h = 8;
  spec.input_w = 8;  // 8*8 == kInputDim
  spec.output_dim = kOutputDim;
  spec.channels1 = 4;
  spec.channels2 = 8;
  spec.hidden = 32;
  spec.seed = 313;
  nn::Sequential model = nn::build_cnn(spec);
  const size_t kSamples = 24;
  auto samples = make_samples(kSamples, 317);
  const auto expected_f64 = serial_reference(model, samples);

  // Serial quantized references: the same precise cache construction the
  // registry performs at add_model, on fully serial contexts.
  auto serial_quantized = [&](nn::Precision precision) {
    const nn::QuantizedWeightCache cache(model, precision);
    nn::ExecutionContext ctx(/*worker_cap=*/1);
    ctx.set_quantized_weights(&cache);
    std::vector<std::vector<double>> out(kSamples);
    for (size_t i = 0; i < kSamples; ++i) {
      nn::Tensor x({1, kInputDim});
      std::copy(samples[i].begin(), samples[i].end(), x.data());
      out[i] = model.predict(ctx, x).vec();
    }
    return out;
  };
  const auto expected_i16 = serial_quantized(nn::Precision::kInt16);
  const auto expected_i8 = serial_quantized(nn::Precision::kInt8);

  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 20'000;
  cfg.worker_threads = 2;
  InferenceServer server(cfg);
  serve::ModelConfig mc = cfg.model_defaults();
  const size_t id_f64 = server.add_model("cnn-f64", model, kInputDim, mc);
  mc.precision = nn::Precision::kInt16;
  const size_t id_i16 = server.add_model("cnn-int16", model, kInputDim, mc);
  mc.precision = nn::Precision::kInt8;
  const size_t id_i8 = server.add_model("cnn-int8", model, kInputDim, mc);

  std::vector<std::future<std::vector<double>>> f64_fut, i16_fut, i8_fut;
  for (size_t i = 0; i < kSamples; ++i) {
    serve::SubmitOptions opt;
    opt.model_id = id_f64;
    f64_fut.push_back(server.submit(samples[i], opt));
    opt.model_id = id_i16;
    i16_fut.push_back(server.submit(samples[i], opt));
    opt.model_id = id_i8;
    i8_fut.push_back(server.submit(samples[i], opt));
  }
  for (size_t i = 0; i < kSamples; ++i) {
    EXPECT_EQ(f64_fut[i].get(), expected_f64[i]) << "f64 lane, sample " << i;
    EXPECT_EQ(i16_fut[i].get(), expected_i16[i])
        << "int16 batched diverged from int16 serial at sample " << i;
    EXPECT_EQ(i8_fut[i].get(), expected_i8[i])
        << "int8 batched diverged from int8 serial at sample " << i;
  }

  // Per-lane stats: each bundle counted exactly its own traffic.
  for (const size_t id : {id_f64, id_i16, id_i8})
    EXPECT_EQ(server.model_stats(id).served, kSamples) << "model id " << id;

  // The ladder, measured across every served sample.
  double rms = 0.0, mae16 = 0.0, mae8 = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < kSamples; ++i)
    for (size_t k = 0; k < expected_f64[i].size(); ++k) {
      rms += expected_f64[i][k] * expected_f64[i][k];
      mae16 += std::abs(expected_f64[i][k] - expected_i16[i][k]);
      mae8 += std::abs(expected_f64[i][k] - expected_i8[i][k]);
      ++count;
    }
  rms = std::sqrt(rms / static_cast<double>(count));
  mae16 /= static_cast<double>(count);
  mae8 /= static_cast<double>(count);
  ASSERT_GT(rms, 0.0);
  EXPECT_LE(mae16, mae8) << "int16 lane less accurate than the int8 lane";
  // Budget for this 8-quantized-stage CNN (see tests/nn/test_quantize.cpp's
  // PrecisionLadder note): looser than the MLP's 3%.
  EXPECT_LE(mae8, 0.10 * rms) << "int8 serving accuracy budget exceeded";
  EXPECT_LE(mae16, 0.01 * rms) << "int16 lane far looser than expected";
}

// Registration-time validation of quantized lanes: a model whose GEMM depth
// exceeds the int8 bound is rejected at add_model — model and layer named —
// not mid-batch on the first request; the same model registers fine at
// int16 (larger bound) and f64 (no bound).

TEST(InferenceServer, AddModelRejectsUnquantizableModelAtRegistration) {
  const size_t deep = nn::kQuantizedGemmMaxDepth + 1;
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(deep, 4));
  InferenceServer server;

  serve::ModelConfig int8_cfg;
  int8_cfg.precision = nn::Precision::kInt8;
  try {
    server.add_model("too-deep", model, deep, int8_cfg);
    FAIL() << "int8 registration of an over-deep Dense was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("too-deep"), std::string::npos) << what;
    EXPECT_NE(what.find("dense"), std::string::npos) << what;
  }
  EXPECT_THROW((void)server.model_id("too-deep"), std::out_of_range);

  serve::ModelConfig int16_cfg;
  int16_cfg.precision = nn::Precision::kInt16;
  EXPECT_NO_THROW(server.add_model("deep-int16", model, deep, int16_cfg));
  EXPECT_NO_THROW(server.add_model("deep-f64", model, deep));
}

// ---------------------------------------------------------------------------
// Restart + stats reset: a close()/restart cycle serves correctly and does
// not leak the previous run's counters.

TEST(InferenceServer, RestartResetsStatsAndServesAgain) {
  auto model = make_model();
  auto samples = make_samples(8, 401);
  const auto expected = serial_reference(model, samples);

  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.worker_threads = 2;
  InferenceServer server(model, kInputDim, cfg);
  for (size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(server.submit(samples[i]).get(), expected[i]);
  EXPECT_EQ(server.stats().served, samples.size());
  EXPECT_EQ(server.model_stats(0).served, samples.size());

  server.shutdown();
  EXPECT_FALSE(server.running());
  EXPECT_THROW(server.submit(samples[0]), std::runtime_error);

  server.restart();
  EXPECT_TRUE(server.running());
  // The previous run's counters are gone...
  EXPECT_EQ(server.stats().served, 0u);
  EXPECT_EQ(server.stats().requests, 0u);
  EXPECT_EQ(server.stats().batches, 0u);
  EXPECT_EQ(server.model_stats(0).served, 0u);
  // ...and the restarted pool serves bitwise-identically again.
  for (size_t i = 0; i < samples.size(); ++i)
    EXPECT_EQ(server.submit(samples[i]).get(), expected[i]);
  EXPECT_EQ(server.stats().served, samples.size());

  // restart() while running is a no-op; reset_stats() zeroes in place.
  server.restart();
  EXPECT_EQ(server.stats().served, samples.size());
  server.reset_stats();
  EXPECT_EQ(server.stats().served, 0u);
  EXPECT_EQ(server.model_stats(0).served, 0u);
  EXPECT_EQ(server.submit(samples[0]).get(), expected[0]);
}

// ---------------------------------------------------------------------------
// add_model config validation: bad knobs fail fast with the model's name in
// the message, before the bundle is published.

TEST(InferenceServer, AddModelRejectsInvalidConfigsWithClearErrors) {
  auto model = make_model();
  InferenceServer server;

  serve::ModelConfig zero_batch;
  zero_batch.max_batch = 0;
  try {
    server.add_model("bad-batch", model, kInputDim, zero_batch);
    FAIL() << "max_batch == 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_batch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bad-batch"), std::string::npos);
  }

  // The classic bug this guards: a negative wait assigned to the unsigned
  // field wraps to ~4e9 us, silently freezing batch flushes for over an
  // hour. The registry rejects anything past the sanity bound.
  serve::ModelConfig negative_wait;
  negative_wait.max_wait_us = static_cast<uint32_t>(-250);
  try {
    server.add_model("bad-wait", model, kInputDim, negative_wait);
    FAIL() << "wrapped-negative max_wait_us was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_wait_us"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bad-wait"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos);
  }

  // Fixed-shape padding below max_batch could not hold a full batch.
  serve::ModelConfig small_pad;
  small_pad.max_batch = 8;
  small_pad.pad_to_batch = 4;
  try {
    server.add_model("bad-pad", model, kInputDim, small_pad);
    FAIL() << "pad_to_batch < max_batch was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pad_to_batch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bad-pad"), std::string::npos);
  }

  // A rejected config publishes nothing: the names stay free.
  EXPECT_THROW((void)server.model_id("bad-batch"), std::out_of_range);
  EXPECT_THROW((void)server.model_id("bad-wait"), std::out_of_range);
  EXPECT_THROW((void)server.model_id("bad-pad"), std::out_of_range);
  // The bound itself is accepted (policy only — no request rides it here).
  serve::ModelConfig max_wait;
  max_wait.max_wait_us = serve::kMaxWaitUs;
  EXPECT_NO_THROW(server.add_model("ok", model, kInputDim, max_wait));
}

}  // namespace
