/// \file test_router.cpp
/// Sharded router correctness: results through any replica stay bitwise
/// identical to the serial single-sample reference (every replica hosts the
/// same registered model and the batcher is deterministic), a rejected
/// registration leaves no replica holding the model, the least-loaded pick
/// actually uses every replica under concurrent load, and the replicas'
/// counters sum to exactly what was served.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "math/rng.hpp"
#include "net/router.hpp"
#include "nn/execution_context.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"

namespace {

using namespace dlpic;
using net::Router;
using net::RouterConfig;

constexpr size_t kInputDim = 32;
constexpr size_t kOutputDim = 8;

nn::Sequential make_model(uint64_t seed) {
  nn::MlpSpec spec;
  spec.input_dim = kInputDim;
  spec.output_dim = kOutputDim;
  spec.hidden = 24;
  spec.depth = 2;
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

RouterConfig small_config(size_t replicas) {
  RouterConfig config;
  config.replicas = replicas;
  config.server.worker_threads = 1;
  config.server.context_worker_cap = 0;
  return config;
}

TEST(Router, RejectsZeroReplicasAndDuplicateModels) {
  EXPECT_THROW(Router(small_config(0)), std::invalid_argument);

  auto model = make_model(1);
  Router router(small_config(2));
  router.add_model("m", model, kInputDim);
  EXPECT_THROW(router.add_model("m", model, kInputDim), std::invalid_argument);
  EXPECT_THROW(router.submit("ghost", std::vector<double>(kInputDim, 0.0)),
               std::invalid_argument);
}

// Every replica hosts every model, so a duplicate name is rejected before
// any replica registers it: no replica is left holding an orphan model.
TEST(Router, RejectedDuplicateRegistersOnNoReplica) {
  auto a = make_model(1);
  auto b = make_model(2);
  Router router(small_config(3));
  router.add_model("a", a, kInputDim);
  router.add_model("b", b, kInputDim);
  EXPECT_THROW(router.add_model("b", a, kInputDim), std::invalid_argument);
  for (size_t r = 0; r < router.replica_count(); ++r) {
    EXPECT_EQ(router.replica(r).model_count(), 2u) << "replica " << r;
    EXPECT_EQ(router.replica(r).model_id("b"), 1u) << "replica " << r;
  }
}

TEST(Router, ResultsBitwiseMatchSerialReferenceAcrossReplicas) {
  auto model = make_model(11);
  const auto samples = make_samples(24, 5);
  const auto expected = serial_reference(model, samples);

  Router router(small_config(3));
  router.add_model("m", model, kInputDim);

  // Concurrent producers so the least-loaded pick actually scatters: every
  // result must still be bitwise equal to the serial reference regardless
  // of which replica (and which batch shape) served it.
  constexpr size_t kClients = 4, kRounds = 12;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::pair<size_t, std::future<std::vector<double>>>>>
      per_client(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      math::Rng rng(100 + c);
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t s = static_cast<size_t>(rng.uniform(0.0, 23.999));
        per_client[c].emplace_back(s, router.submit("m", samples[s]));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (auto& futures : per_client) {
    for (auto& [s, future] : futures) {
      const std::vector<double> y = future.get();
      ASSERT_EQ(y.size(), kOutputDim);
      for (size_t j = 0; j < kOutputDim; ++j) EXPECT_EQ(y[j], expected[s][j]);
    }
  }

  // The replicas' counters close: served summed over replicas == all
  // requests, overall and for the model.
  router.shutdown();
  const net::RouterStats stats = router.stats();
  EXPECT_EQ(stats.total.served, kClients * kRounds);
  EXPECT_EQ(router.replica_count(), 3u);
  size_t model_served = 0;
  for (size_t r = 0; r < router.replica_count(); ++r) {
    serve::InferenceServer& replica = router.replica(r);
    const auto model_stats = replica.model_stats(replica.model_id("m"));
    EXPECT_EQ(model_stats.name, "m");
    model_served += model_stats.served;
  }
  EXPECT_EQ(model_served, kClients * kRounds);
}

TEST(Router, LoadSpreadsOverTheGroupUnderBacklog) {
  auto model = make_model(21);
  const auto samples = make_samples(4, 9);

  Router router(small_config(3));
  router.add_model("m", model, kInputDim);

  // A pipelined backlog (submit all, then wait) gives the least-loaded pick
  // real queue-depth signal; with the round-robin tiebreak every replica
  // must see traffic.
  std::vector<std::future<std::vector<double>>> futures;
  constexpr size_t kRequests = 96;
  for (size_t i = 0; i < kRequests; ++i)
    futures.push_back(router.submit("m", samples[i % samples.size()]));
  for (auto& f : futures) f.get();

  router.shutdown();
  size_t served = 0;
  for (size_t r = 0; r < router.replica_count(); ++r) {
    const size_t replica_served = router.replica(r).stats().served;
    EXPECT_GT(replica_served, 0u) << "replica " << r << " starved";
    served += replica_served;
  }
  EXPECT_EQ(served, kRequests);
}

}  // namespace
