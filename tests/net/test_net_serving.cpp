/// \file test_net_serving.cpp
/// End-to-end socket serving: mixed-model / mixed-lane requests through
/// net::Client -> NetServer -> Router -> InferenceServer replicas are
/// bitwise identical to in-process InferenceServer::submit on the same
/// models, however the request stream is cut into writes; relative wire
/// deadlines expire as kAppError replies; a
/// 1000-random-corruption fuzz loop against a live server produces only
/// clean protocol errors (zero crashes, the server keeps serving); and the
/// malformed-protocol + injected net.accept/net.read/net.write chaos test
/// proves no client promise is ever lost — every future resolves with a
/// value or an exception for any fault schedule. CI runs this file under
/// TSan with the chaos seed matrix.

#include <gtest/gtest.h>

#include <sys/socket.h>
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
#include <optional>
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

/// Reads the next reply frame off a raw connection; nullopt on a clean
/// close between frames.
std::optional<NetResponse> next_reply(net::RecvBuffer& input) {
  const uint8_t* header = input.next(net::kFrameHeaderBytes);
  if (header == nullptr) return std::nullopt;
  const size_t body_len =
      static_cast<size_t>(net::decode_frame_header(header, {}).body_len);
  const uint8_t* body = body_len > 0 ? input.next(body_len) : nullptr;
  if (body_len > 0 && body == nullptr) throw net::SocketError("closed before the reply body");
  return net::decode_response(body, body_len, {});
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
  const auto frame = std::move(w).frame();
  raw.send_all(frame.data(), frame.size());

  // The reply names the salvaged request id and the connection stays open:
  // a correct request on the SAME socket still serves.
  net::RecvBuffer input(raw);
  const std::optional<NetResponse> reply = next_reply(input);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, Status::kProtocolError);
  EXPECT_EQ(reply->request_id, 77u);

  net::NetRequest good;
  good.request_id = 78;
  good.model = "m";
  good.payload = sample;
  const auto good_frame = net::encode_request(good);
  raw.send_all(good_frame.data(), good_frame.size());
  const std::optional<NetResponse> ok = next_reply(input);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, Status::kOk) << ok->error;
  EXPECT_EQ(ok->request_id, 78u);
}

TEST(RecvBuffer, HandsOutExactReadsAndSeesEofOnlyBetweenThem) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Socket writer(fds[0]), reader(fds[1]);
  net::RecvBuffer input(reader);

  // A short read, one larger than the buffer (received straight into place
  // after the bytes already buffered), and a short read after it.
  std::vector<uint8_t> stream(4 + net::RecvBuffer::kCapacity + 100 + 3);
  for (size_t i = 0; i < stream.size(); ++i) stream[i] = static_cast<uint8_t>(i * 7 + 1);
  writer.send_all(stream.data(), stream.size());
  writer.shutdown_write();
  size_t offset = 0;
  for (const size_t n : {size_t{4}, net::RecvBuffer::kCapacity + 100, size_t{3}}) {
    const uint8_t* p = input.next(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(std::memcmp(p, stream.data() + offset, n), 0) << "read of " << n;
    offset += n;
  }
  EXPECT_EQ(input.next(1), nullptr) << "EOF between reads is a clean close";

  // EOF inside a read is not.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Socket writer2(fds[0]), reader2(fds[1]);
  net::RecvBuffer input2(reader2);
  writer2.send_all(stream.data(), 2);
  writer2.shutdown_write();
  EXPECT_THROW((void)input2.next(net::kFrameHeaderBytes), net::SocketError);
}

// The server decodes frames in place from a per-connection receive buffer.
// However the request stream is cut into writes (inside a header, inside a
// body, many frames in one write, a body larger than the buffer), every
// frame is answered in order and bitwise equal to in-process submit.
TEST(NetServing, FramesSurviveArbitraryChunking) {
  constexpr size_t kWideDim = net::RecvBuffer::kCapacity / sizeof(double) + 64;
  auto model = make_model(901);
  nn::MlpSpec wide_spec;
  wide_spec.input_dim = kWideDim;
  wide_spec.output_dim = kOutputDim;
  wide_spec.hidden = 4;
  wide_spec.depth = 1;
  wide_spec.seed = 902;
  auto wide = nn::build_mlp(wide_spec);
  const auto samples = make_samples(16, 23);
  math::Rng rng(2323);
  std::vector<double> wide_sample(kWideDim);
  for (auto& v : wide_sample) v = rng.uniform(0.0, 10.0);

  serve::ServerConfig ref_cfg;
  ref_cfg.worker_threads = 1;
  ref_cfg.context_worker_cap = 0;
  serve::InferenceServer reference(ref_cfg);
  const size_t id_m = reference.add_model("m", model, kInputDim, ref_cfg.model_defaults());
  const size_t id_wide =
      reference.add_model("wide", wide, kWideDim, ref_cfg.model_defaults());
  std::vector<std::vector<double>> expected;
  for (const auto& sample : samples) {
    serve::SubmitOptions options;
    options.model_id = id_m;
    expected.push_back(reference.submit(sample, options).get());
  }
  serve::SubmitOptions wide_options;
  wide_options.model_id = id_wide;
  const std::vector<double> wide_expected = reference.submit(wide_sample, wide_options).get();
  reference.shutdown();

  Router router(small_config(1));
  router.add_model("m", model, kInputDim);
  router.add_model("wide", wide, kWideDim);
  NetServer server(router, test_address("chunks"));

  // K small frames with the wide one in the middle; request id i + 1 for
  // frame i. `starts` holds each frame's offset in the stream.
  constexpr size_t kFrames = 24, kWideAt = kFrames / 2;
  std::vector<uint8_t> stream;
  std::vector<size_t> starts;
  for (size_t i = 0; i < kFrames; ++i) {
    net::NetRequest request;
    request.request_id = i + 1;
    request.model = i == kWideAt ? "wide" : "m";
    request.priority = static_cast<uint8_t>(i % 2);
    request.payload = i == kWideAt ? wide_sample : samples[i % samples.size()];
    const auto frame = net::encode_request(request);
    starts.push_back(stream.size());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  auto check_replies = [&](net::Socket& socket, const char* how) {
    net::RecvBuffer input(socket);
    for (size_t i = 0; i < kFrames; ++i) {
      const std::optional<NetResponse> reply = next_reply(input);
      ASSERT_TRUE(reply.has_value()) << how << ": closed before frame " << i;
      ASSERT_EQ(reply->request_id, i + 1) << how;
      ASSERT_EQ(reply->status, Status::kOk) << how << ": " << reply->error;
      const auto& want = i == kWideAt ? wide_expected : expected[i % samples.size()];
      ASSERT_EQ(reply->payload, want) << how << ", frame " << i;
    }
  };

  {
    // Cut once inside every header, then at random offsets.
    std::vector<size_t> cuts;
    for (const size_t start : starts)
      cuts.push_back(start + 1 + static_cast<size_t>(rng.uniform(0.0, 14.999)));
    for (size_t c = 0; c < 3 * kFrames; ++c)
      cuts.push_back(1 + static_cast<size_t>(
                             rng.uniform(0.0, static_cast<double>(stream.size()) - 1.001)));
    cuts.push_back(stream.size());
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    net::Socket raw = net::Socket::connect(server.address());
    size_t from = 0;
    for (const size_t to : cuts) {
      raw.send_all(stream.data() + from, to - from);
      from = to;
      // Let the server read each piece on its own.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    check_replies(raw, "chunked");
  }
  {
    net::Socket raw = net::Socket::connect(server.address());
    raw.send_all(stream.data(), stream.size());
    check_replies(raw, "one write");
  }
  {
    // A header announcing a body over max_frame_bytes is answered at once
    // (the body is never awaited, let alone allocated) and the connection
    // is closed.
    net::FrameHeader header;
    header.body_len = server.config().limits.max_frame_bytes + 1;
    uint8_t bytes[net::kFrameHeaderBytes];
    net::encode_frame_header(header, bytes);
    net::Socket raw = net::Socket::connect(server.address());
    raw.send_all(bytes, sizeof(bytes));
    net::RecvBuffer input(raw);
    const std::optional<NetResponse> reply = next_reply(input);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, Status::kProtocolError);
    EXPECT_FALSE(next_reply(input).has_value()) << "the server must close after a bad header";
  }

  server.stop();
  const net::NetServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_decoded, 2 * kFrames);
  EXPECT_EQ(stats.responses_sent, 2 * kFrames + 1);
  EXPECT_EQ(stats.protocol_errors, 1u);
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
      net::RecvBuffer input(raw);
      bool got_reply = false;
      while (next_reply(input)) got_reply = true;
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
