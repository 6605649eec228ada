/// \file test_net_serving.cpp
/// End-to-end socket serving: mixed-model / mixed-lane requests through
/// net::Client -> NetServer -> Router -> InferenceServer replicas are
/// bitwise identical to in-process InferenceServer::submit on the same
/// models; relative wire deadlines expire as kAppError replies; a
/// 1000-random-corruption fuzz loop against a live server produces only
/// clean protocol errors (zero crashes, the server keeps serving); and the
/// malformed-protocol + injected net.accept/net.read/net.write chaos test
/// proves no client promise is ever lost — every future resolves with a
/// value or an exception for any fault schedule. CI runs this file under
/// TSan with the chaos seed matrix.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "math/rng.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "serve/inference_server.hpp"
#include "util/fault_injection.hpp"

namespace {

using namespace dlpic;
using net::Address;
using net::Client;
using net::NetResponse;
using net::NetServer;
using net::Router;
using net::RouterConfig;
using net::Status;
using util::FaultInjector;
using util::FaultSite;
using util::ScopedFaultInjection;

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

Address test_address(const char* tag) {
  return Address::unix_socket("/tmp/dlpic_test_" + std::string(tag) + "_" +
                              std::to_string(::getpid()) + ".sock");
}

RouterConfig small_config(size_t replicas) {
  RouterConfig config;
  config.replicas = replicas;
  config.server.worker_threads = 1;
  config.server.context_worker_cap = 0;
  return config;
}

void arm_faults(std::initializer_list<std::pair<FaultSite, double>> sites) {
  FaultInjector& fi = FaultInjector::instance();
  fi.disable_all();
  fi.set_seed(fi.seed());
  for (const auto& [site, p] : sites) fi.set_probability(site, p);
}

// The tentpole contract: mixed-model, mixed-lane traffic over the wire is
// bitwise identical to in-process InferenceServer::submit on the same
// models — encode/decode, framing, the router's replica pick and the
// batcher's dynamic batch shapes must never perturb a result.
TEST(NetServing, WireResultsBitwiseMatchInProcessSubmit) {
  auto model_a = make_model(101);
  auto model_b = make_model(202);
  const auto samples = make_samples(16, 7);

  // In-process reference: one multi-model server, serial worker.
  serve::ServerConfig ref_cfg;
  ref_cfg.worker_threads = 1;
  ref_cfg.context_worker_cap = 0;
  serve::InferenceServer reference(ref_cfg);
  const size_t id_a = reference.add_model("a", model_a, kInputDim,
                                          ref_cfg.model_defaults());
  const size_t id_b = reference.add_model("b", model_b, kInputDim,
                                          ref_cfg.model_defaults());
  std::vector<std::vector<double>> expected_a(samples.size()),
      expected_b(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    serve::SubmitOptions options;
    options.model_id = id_a;
    expected_a[i] = reference.submit(samples[i], options).get();
    options.model_id = id_b;
    expected_b[i] = reference.submit(samples[i], options).get();
  }
  reference.shutdown();

  // The wire path: 2 replicas, both models on every replica, 3 pipelining
  // client connections mixing models and lanes.
  Router router(small_config(2));
  router.add_model("a", model_a, kInputDim);
  router.add_model("b", model_b, kInputDim);
  NetServer server(router, test_address("e2e"));

  constexpr size_t kClients = 3, kRounds = 20;
  std::vector<std::thread> threads;
  std::vector<std::string> failures;
  std::mutex failures_mutex;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(server.address());
        math::Rng rng(50 + c);
        std::vector<std::tuple<size_t, bool, std::future<NetResponse>>> futures;
        for (size_t r = 0; r < kRounds; ++r) {
          const size_t s = static_cast<size_t>(rng.uniform(0.0, 15.999));
          const bool use_a = rng.uniform(0.0, 1.0) < 0.5;
          const uint8_t lane = rng.uniform(0.0, 1.0) < 0.3 ? 0 : 1;  // mixed lanes
          futures.emplace_back(
              s, use_a,
              client.submit_async(use_a ? "a" : "b", samples[s], lane));
        }
        for (auto& [s, use_a, future] : futures) {
          const NetResponse response = future.get();
          ASSERT_EQ(response.status, Status::kOk) << response.error;
          const auto& expected = use_a ? expected_a[s] : expected_b[s];
          ASSERT_EQ(response.payload.size(), kOutputDim);
          for (size_t j = 0; j < kOutputDim; ++j)
            ASSERT_EQ(response.payload[j], expected[j])
                << "client " << c << " sample " << s << " dim " << j;
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back(e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& f : failures) ADD_FAILURE() << f;

  // A writer counts a reply after send_all returns, so a client can hold its
  // last reply before the count lands; stop() joins every writer first.
  server.stop();
  const net::NetServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_decoded, kClients * kRounds);
  EXPECT_EQ(stats.responses_sent, kClients * kRounds);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.app_errors, 0u);
}

TEST(NetServing, RelativeWireDeadlineExpiresAsAppError) {
  auto model = make_model(301);
  Router router(small_config(1));
  router.add_model("m", model, kInputDim);
  NetServer server(router, test_address("deadline"));
  Client client(server.address());
  const auto sample = make_samples(1, 3)[0];

  // deadline_us = 0: expired the moment the server stamps it. Travels the
  // whole wire path and must come back as a clean kAppError, never a hang.
  const NetResponse expired =
      client.submit_async("m", sample, /*priority=*/0, /*deadline_us=*/0).get();
  EXPECT_EQ(expired.status, Status::kAppError);
  EXPECT_FALSE(expired.error.empty());

  // A generous relative deadline still serves.
  const NetResponse served =
      client.submit_async("m", sample, 0, /*deadline_us=*/10'000'000).get();
  EXPECT_EQ(served.status, Status::kOk) << served.error;

  // A deadline past the clock's range means no deadline: it must not wrap
  // into an already-expired time point.
  const NetResponse unbounded =
      client.submit_async("m", sample, 0, std::numeric_limits<int64_t>::max()).get();
  EXPECT_EQ(unbounded.status, Status::kOk) << unbounded.error;

  // Unknown model: well-formed request, application-level error.
  const NetResponse unknown = client.submit_async("ghost", sample).get();
  EXPECT_EQ(unknown.status, Status::kAppError);
  EXPECT_NE(unknown.error.find("ghost"), std::string::npos) << unknown.error;
}

TEST(NetServing, MalformedBodyGetsProtocolErrorReplyAndConnectionSurvives) {
  auto model = make_model(401);
  Router router(small_config(1));
  router.add_model("m", model, kInputDim);
  NetServer server(router, test_address("malformed"));
  const auto sample = make_samples(1, 5)[0];

  net::Socket raw = net::Socket::connect(server.address());
  // A frame whose header is valid but whose body lies about a length.
  net::FrameWriter w;
  w.put_u8(net::kRequestMessage);
  w.put_u64(77);            // request id (recoverable from the prefix)
  w.put_u64(1ull << 60);    // hostile model-name length
  const auto frame = w.frame();
  raw.send_all(frame.data(), frame.size());

  // The reply names the salvaged request id and the connection stays open:
  // a correct request on the SAME socket still serves.
  uint8_t header[net::kFrameHeaderBytes];
  ASSERT_TRUE(raw.recv_all(header, sizeof(header)));
  const net::FrameHeader h = net::decode_frame_header(header, {});
  std::vector<uint8_t> body(h.body_len);
  ASSERT_TRUE(raw.recv_all(body.data(), body.size()));
  const NetResponse reply = net::decode_response(body.data(), body.size(), {});
  EXPECT_EQ(reply.status, Status::kProtocolError);
  EXPECT_EQ(reply.request_id, 77u);

  net::NetRequest good;
  good.request_id = 78;
  good.model = "m";
  good.payload = sample;
  const auto good_frame = net::encode_request(good);
  raw.send_all(good_frame.data(), good_frame.size());
  ASSERT_TRUE(raw.recv_all(header, sizeof(header)));
  const net::FrameHeader h2 = net::decode_frame_header(header, {});
  body.resize(h2.body_len);
  ASSERT_TRUE(raw.recv_all(body.data(), body.size()));
  const NetResponse ok = net::decode_response(body.data(), body.size(), {});
  EXPECT_EQ(ok.status, Status::kOk) << ok.error;
  EXPECT_EQ(ok.request_id, 78u);
}

// The fuzz acceptance: 1000 random corruptions of a valid request frame,
// each thrown at a live server over a fresh connection. Every outcome must
// be clean — a protocol-error reply, an app-error reply, a served request
// (corruption hit only payload bytes) or a closed connection — and the
// server must still serve perfectly afterwards.
TEST(NetServing, ThousandWireCorruptionsNeverKillTheServer) {
  auto model = make_model(501);
  Router router(small_config(2));
  router.add_model("m", model, kInputDim);
  NetServer server(router, test_address("fuzz"));
  const auto sample = make_samples(1, 11)[0];

  net::NetRequest request;
  request.request_id = 1;
  request.model = "m";
  request.payload = sample;
  const auto pristine = net::encode_request(request);

  math::Rng rng(424242);
  size_t replies = 0, closes = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    auto frame = pristine;
    const int mode = static_cast<int>(rng.uniform(0.0, 4.0));
    if (mode == 0) {
      const int flips = 1 + static_cast<int>(rng.uniform(0.0, 8.0));
      for (int f = 0; f < flips; ++f)
        frame[static_cast<size_t>(rng.uniform(
            0.0, static_cast<double>(frame.size()) - 0.001))] ^=
            static_cast<uint8_t>(1 + rng.uniform(0.0, 254.0));
    } else if (mode == 1) {
      frame.resize(static_cast<size_t>(
          rng.uniform(0.0, static_cast<double>(frame.size()) - 0.001)));
    } else if (mode == 2) {
      const int extra = 1 + static_cast<int>(rng.uniform(0.0, 32.0));
      for (int f = 0; f < extra; ++f)
        frame.push_back(static_cast<uint8_t>(rng.uniform(0.0, 255.999)));
    } else {
      const size_t pos = static_cast<size_t>(
          rng.uniform(0.0, static_cast<double>(frame.size() - 8)));
      const uint64_t lie = static_cast<uint64_t>(rng.uniform(0.0, 1e18));
      std::memcpy(frame.data() + pos, &lie, 8);
    }

    try {
      net::Socket raw = net::Socket::connect(server.address());
      raw.send_all(frame.data(), frame.size());
      raw.shutdown_write();  // truncations would otherwise wait forever
      // Read whatever comes back until EOF; any reply or a plain close is a
      // clean outcome. SocketError mid-read (server closed after replying
      // the header) is clean too — what is forbidden is a crash or hang.
      uint8_t header[net::kFrameHeaderBytes];
      bool got_reply = false;
      while (raw.recv_all(header, sizeof(header))) {
        const net::FrameHeader h = net::decode_frame_header(header, {});
        std::vector<uint8_t> body(h.body_len);
        if (h.body_len > 0 && !raw.recv_all(body.data(), body.size())) break;
        (void)net::decode_response(body.data(), body.size(), {});
        got_reply = true;
      }
      (got_reply ? replies : closes) += 1;
    } catch (const net::SocketError&) {
      ++closes;
    } catch (const net::ProtocolError&) {
      ADD_FAILURE() << "server sent a malformed reply at iter " << iter;
    }
  }
  EXPECT_EQ(replies + closes, 1000u);

  // The server is not just alive — it still serves bitwise-correct results.
  Client client(server.address());
  const NetResponse after = client.submit_async("m", sample).get();
  EXPECT_EQ(after.status, Status::kOk) << after.error;
  const net::NetServerStats stats = server.stats();
  EXPECT_GT(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.connections_accepted, 1001u);
}

// The malformed-protocol chaos test CI runs under TSan with the seed
// matrix: net.accept / net.read / net.write faults fire at the socket
// boundaries while clients pump real traffic AND malformed frames. The
// guarantee that must hold for ANY schedule: every submit_async future
// resolves — with a value (bitwise-correct) or an exception — within the
// timeout. No lost promises, no crash, and the server serves cleanly once
// the faults stop.
TEST(NetServingChaos, InjectedNetFaultsLoseNoPromises) {
  ScopedFaultInjection guard;
  auto model = make_model(601);
  const auto samples = make_samples(8, 13);

  Router router(small_config(2));
  router.add_model("m", model, kInputDim);
  NetServer server(router, test_address("chaos"));

  arm_faults({{FaultSite::kNetAccept, 0.05},
              {FaultSite::kNetRead, 0.05},
              {FaultSite::kNetWrite, 0.05}});

  constexpr size_t kClients = 3, kRounds = 40;
  std::atomic<size_t> values{0}, errors{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      math::Rng rng(70 + c);
      for (size_t r = 0; r < kRounds; ++r) {
        try {
          Client client(server.address());
          std::vector<std::pair<size_t, std::future<NetResponse>>> futures;
          for (size_t b = 0; b < 4; ++b) {
            const size_t s = static_cast<size_t>(rng.uniform(0.0, 7.999));
            futures.emplace_back(s, client.submit_async("m", samples[s]));
          }
          // Every 5th round also fires a malformed frame down a raw socket
          // while the injected faults are live.
          if (r % 5 == 0) {
            try {
              net::Socket raw = net::Socket::connect(server.address());
              std::vector<uint8_t> garbage(24);
              for (auto& b : garbage)
                b = static_cast<uint8_t>(rng.uniform(0.0, 255.999));
              raw.send_all(garbage.data(), garbage.size());
              raw.shutdown_write();
            } catch (const std::exception&) {
              // injected connect/write failure: also a valid schedule
            }
          }
          for (auto& [s, future] : futures) {
            if (future.wait_for(std::chrono::seconds(60)) !=
                std::future_status::ready) {
              ADD_FAILURE() << "lost promise: future never resolved";
              return;
            }
            try {
              const NetResponse response = future.get();
              if (response.status == Status::kOk) {
                ++values;
              } else {
                ++errors;
              }
            } catch (const std::exception&) {
              ++errors;  // failed connection: clean, accounted
            }
          }
        } catch (const std::exception&) {
          errors += 4;  // whole round failed to connect/submit: still clean
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(values.load() + errors.load(), kClients * kRounds * 4);

  // Quiesce the injector; the server must serve bitwise-correct again.
  FaultInjector::instance().disable_all();
  Client client(server.address());
  const NetResponse after = client.submit_async("m", samples[0]).get();
  EXPECT_EQ(after.status, Status::kOk) << after.error;
}

TEST(NetServing, MaxConnectionsSheddingRejectsTheOverflowConnection) {
  auto model = make_model(701);
  Router router(small_config(1));
  router.add_model("m", model, kInputDim);
  net::NetServerConfig config;
  config.max_connections = 1;
  NetServer server(router, test_address("shed"), config);
  const auto sample = make_samples(1, 17)[0];

  Client first(server.address());
  EXPECT_EQ(first.submit_async("m", sample).get().status, Status::kOk);

  // The second connection is accepted at the kernel level then immediately
  // closed by the accept loop: its first round trip must fail cleanly.
  bool rejected = false;
  try {
    Client second(server.address());
    auto future = second.submit_async("m", sample);
    if (future.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      ADD_FAILURE() << "rejected connection hung instead of failing";
    } else {
      try {
        (void)future.get();
      } catch (const net::SocketError&) {
        rejected = true;
      }
    }
  } catch (const net::SocketError&) {
    rejected = true;  // connect or send already observed the close
  }
  EXPECT_TRUE(rejected);
  EXPECT_EQ(server.stats().connections_rejected, 1u);

  // The first connection is unaffected.
  EXPECT_EQ(first.submit_async("m", sample).get().status, Status::kOk);
}

TEST(NetServing, StopWithInFlightRequestsResolvesEverything) {
  auto model = make_model(801);
  Router router(small_config(2));
  router.add_model("m", model, kInputDim);
  auto server = std::make_unique<NetServer>(router, test_address("stop"));
  const auto sample = make_samples(1, 19)[0];

  Client client(server->address());
  std::vector<std::future<NetResponse>> futures;
  for (size_t i = 0; i < 16; ++i)
    futures.push_back(client.submit_async("m", sample));
  server->stop();  // races the in-flight requests on purpose

  size_t resolved = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(60)), std::future_status::ready)
        << "stop() lost a promise";
    try {
      (void)f.get();
    } catch (const std::exception&) {
      // connection torn down first: clean failure
    }
    ++resolved;
  }
  EXPECT_EQ(resolved, 16u);
  server.reset();
  router.shutdown();
}

}  // namespace
