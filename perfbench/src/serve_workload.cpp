// serve_ci: CI-shaped field solves (32x32 histogram -> 3x128 -> 64) served
// over a unix socket by net::Router (1 replica, 1 batcher, serial context)
// behind net::NetServer. Inputs are the phase-space histograms of a seeded
// CI-scale PIC run; every reply must be kOk and bitwise equal to the
// in-process DlFieldSolver::solve_histogram of the same histogram.
//
//  - Set-up: full bring-ups (bundle load, router, bind, connect) of spare
//    stacks, one before each segment pair; the median is reported. One
//    more stack, brought up first, serves all the traffic.
//  - Phase A, closed loop: 2 connections, 16 requests in flight on each;
//    the saturation throughput.
//  - Phase B, open loop: 1000 req/s from 1 connection (under 10% of
//    capacity); each request is timed from when it was due.
//  The untraced run alternates 40 segments of each phase and reports the
//  fastest quarter of each (see kFastShare).
// The traced run adds an in-process pass at the same rate with
// InferenceServer traces on, for the queue/assemble/forward stage split.
// Load budget: at most 2 load threads and 2 connections, one process, and
// like every workload it runs pinned to one CPU.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dl_field_solver.hpp"
#include "core/presets.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "pic/simulation.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dlpic;

constexpr size_t kConnections = 2;
constexpr size_t kWindow = 16;      // requests in flight per connection, phase A
constexpr double kOpenRate = 1000;  // req/s, phase B and the in-process pass
constexpr size_t kSegments = 40;    // closed/open segment pairs per untraced run
const char* const kModel = "field";

/// Histograms of a seeded CI-scale PIC run and their in-process fields.
struct Inputs {
  std::vector<std::vector<double>> histograms;
  std::vector<std::vector<double>> expected;
};

Inputs make_inputs(uint64_t seed, core::DlFieldSolver& solver) {
  auto config = core::ci_preset().generator.base;
  config.beams.v0 = 0.2;
  config.seed = mix_seed(seed, 1);
  Inputs inputs;
  const phase_space::PhaseSpaceBinner binner(solver.binner_config());
  pic::TraditionalPic sim(config);
  sim.set_observer([&](const pic::TraditionalPic& s) {
    inputs.histograms.push_back(binner.bin(s.electrons()));
  });
  sim.run();
  for (const auto& h : inputs.histograms) inputs.expected.push_back(solver.solve_histogram(h));
  return inputs;
}

net::RouterConfig router_config() {
  net::RouterConfig config;
  config.replicas = 1;
  config.server.worker_threads = 1;
  config.server.context_worker_cap = 1;
  config.server.max_batch = 16;
  config.server.max_wait_us = 200;
  return config;
}

/// One brought-up serving stack; members are torn down in reverse order.
struct Stack {
  std::unique_ptr<core::DlFieldSolver> solver;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<net::Client>> clients;
};

std::unique_ptr<Stack> bring_up(const std::string& bundle, const std::string& socket_path) {
  auto stack = std::make_unique<Stack>();
  stack->solver = std::make_unique<core::DlFieldSolver>(core::DlFieldSolver::load(bundle));
  const auto config = router_config();
  stack->router = std::make_unique<net::Router>(config);
  const auto& bc = stack->solver->binner_config();
  stack->router->add_model(kModel, stack->solver->model(), bc.nx * bc.nv,
                           config.server.model_defaults(), &stack->solver->normalizer());
  stack->server =
      std::make_unique<net::NetServer>(*stack->router, net::Address::unix_socket(socket_path));
  for (size_t c = 0; c < kConnections; ++c)
    stack->clients.push_back(std::make_unique<net::Client>(stack->server->address()));
  return stack;
}

/// Outcome counts of a pass, merged across its threads.
struct Tally {
  std::mutex mutex;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> send_us;     // time inside submit (when timed)
  std::vector<double> latency_ms;  // open loop: from due time to reply
  std::vector<double> late_ms;     // open loop: how late the generator sent

  void merge(size_t ok, size_t bad, const std::vector<double>& sends) {
    std::lock_guard lock(mutex);
    attempted += ok + bad;
    failed += bad;
    send_us.insert(send_us.end(), sends.begin(), sends.end());
  }
};

bool reply_ok(const net::NetResponse& reply, const std::vector<double>& expected) {
  return reply.status == net::Status::kOk && bitwise_equal(reply.payload, expected);
}

/// Phase A: each connection keeps kWindow requests in flight until the
/// window closes, then drains. Returns completed requests per second.
double closed_loop(Stack& stack, const Inputs& inputs, double seconds, bool time_sends,
                   Tally& tally) {
  const size_t pool = inputs.histograms.size();
  size_t before = 0;
  {
    std::lock_guard lock(tally.mutex);
    before = tally.attempted;
  }
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      size_t ok = 0, bad = 0;
      std::vector<double> sends;
      try {
        net::Client& client = *stack.clients[c];
        std::deque<std::pair<size_t, std::future<net::NetResponse>>> window;
        size_t next = c * pool / kConnections;
        auto submit = [&] {
          const size_t idx = next++ % pool;
          const auto a = Clock::now();
          window.emplace_back(idx, client.submit_async(kModel, inputs.histograms[idx]));
          if (time_sends) sends.push_back(1e6 * seconds_between(a, Clock::now()));
        };
        while (Clock::now() < end || !window.empty()) {
          while (window.size() < kWindow && Clock::now() < end) submit();
          auto [idx, reply] = std::move(window.front());
          window.pop_front();
          (reply_ok(reply.get(), inputs.expected[idx]) ? ok : bad)++;
        }
      } catch (const std::exception&) {
        ++bad;  // a dead connection fails the run
      }
      tally.merge(ok, bad, sends);
    });
  }
  for (auto& t : threads) t.join();
  const double wall = seconds_between(start, Clock::now());
  std::lock_guard lock(tally.mutex);
  return static_cast<double>(tally.attempted - before) / wall;
}

/// Phase B / in-process pass: one sender submits at kOpenRate on schedule
/// and one receiver resolves replies in order, timing each from its due
/// time. `submit(idx)` returns the reply future, `ok(reply, idx)` checks it.
template <class Submit, class Check>
void open_loop(const Inputs& inputs, double seconds, bool time_sends, Submit&& submit,
               Check&& ok, Tally& tally) {
  using Future = decltype(submit(size_t{0}));
  struct Sent {
    Clock::time_point due;
    size_t idx;
    Future reply;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Sent> sent;
  bool done = false;
  std::vector<double> sends, late_ms;
  size_t send_failures = 0;

  const size_t pool = inputs.histograms.size();
  const auto period = std::chrono::duration<double>(1.0 / kOpenRate);
  const auto start = Clock::now();
  std::thread sender([&] {
    try {
      for (size_t i = 0;; ++i) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     period * static_cast<double>(i));
        if (seconds_between(start, due) >= seconds) break;
        std::this_thread::sleep_until(due);
        const auto a = Clock::now();
        Future reply = submit(i % pool);
        const auto b = Clock::now();
        late_ms.push_back(1e3 * seconds_between(due, a));
        if (time_sends) sends.push_back(1e6 * seconds_between(a, b));
        std::lock_guard lock(mutex);
        sent.push_back({due, i % pool, std::move(reply)});
        cv.notify_one();
      }
    } catch (const std::exception&) {
      ++send_failures;
    }
    std::lock_guard lock(mutex);
    done = true;
    cv.notify_one();
  });

  size_t good = 0, bad = 0;
  std::vector<double> latency_ms;
  for (;;) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return done || !sent.empty(); });
    if (sent.empty()) break;
    Sent s = std::move(sent.front());
    sent.pop_front();
    lock.unlock();
    try {
      const bool fine = ok(s.reply.get(), s.idx);
      latency_ms.push_back(1e3 * seconds_between(s.due, Clock::now()));
      (fine ? good : bad)++;
    } catch (const std::exception&) {
      ++bad;
    }
  }
  sender.join();
  bad += send_failures;
  tally.merge(good, bad, sends);
  std::lock_guard lock(tally.mutex);
  tally.latency_ms.insert(tally.latency_ms.end(), latency_ms.begin(), latency_ms.end());
  tally.late_ms.insert(tally.late_ms.end(), late_ms.begin(), late_ms.end());
}

void wire_open_loop(Stack& stack, const Inputs& inputs, double seconds, bool time_sends,
                    Tally& tally) {
  net::Client& client = *stack.clients[0];
  open_loop(
      inputs, seconds, time_sends,
      [&](size_t idx) { return client.submit_async(kModel, inputs.histograms[idx]); },
      [&](const net::NetResponse& reply, size_t idx) {
        return reply_ok(reply, inputs.expected[idx]);
      },
      tally);
}

/// Median of one trace stage interval over the served records, in us.
double stage_us(const std::vector<serve::TraceRecord>& records, serve::TraceStage from,
                serve::TraceStage to) {
  std::vector<double> us;
  for (const auto& r : records)
    if (r.outcome == serve::TraceOutcome::kServed) us.push_back(1e-3 * r.stage_ns(from, to));
  return median(us);
}

}  // namespace

Report run_serve_ci(const Options& options) {
  const auto preset = core::ci_preset();
  auto spec = preset.mlp;
  spec.seed = mix_seed(options.seed, 2);
  core::DlFieldSolver built(nn::build_mlp(spec), data::MinMaxNormalizer(0.0, 1000.0),
                            preset.generator.binner);
  const std::string bundle = options.workdir + "/serve_ci.bundle";
  const std::string socket_path = options.workdir + "/serve_ci.sock";
  built.save(bundle);
  const Inputs inputs = make_inputs(options.seed, built);

  Report report;
  const auto stack = bring_up(bundle, socket_path);

  Tally closed, open;
  if (!options.trace) {
    // Alternating closed/open segments, so that both phases sample the
    // whole window and a slow stretch of the host moves some segments of
    // each instead of a whole phase. The set-up samples are spread over the
    // window the same way: taken in one burst at the start, their median
    // moved by 80% between runs.
    const std::string spare_socket = options.workdir + "/serve_ci_spare.sock";
    const double segment = options.seconds / (2.0 * kSegments);
    std::vector<double> rates, p50s, setup_s;
    for (size_t k = 0; k < kSegments; ++k) {
      {
        const auto start = Clock::now();
        const auto spare = bring_up(bundle, spare_socket);
        setup_s.push_back(seconds_between(start, Clock::now()));
      }  // the spare stack is torn down here, untimed
      rates.push_back(closed_loop(*stack, inputs, segment, false, closed));
      const size_t from = open.latency_ms.size();
      wire_open_loop(*stack, inputs, segment, false, open);
      p50s.push_back(median({open.latency_ms.begin() + static_cast<long>(from),
                             open.latency_ms.end()}));
    }
    report.attempted = closed.attempted + open.attempted;
    report.failed = closed.failed + open.failed;
    report.add("throughput_per_s", quantile(rates, 1.0 - kFastShare), "1/s");
    report.add("latency_ms_p50", quantile(p50s, kFastShare), "ms");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("closed-loop segment rates: " + tail_summary(rates, "req/s"));
    report.note("open-loop segment p50s: " + tail_summary(p50s, "ms"));
    report.note("open-loop latency from due time: " + tail_summary(open.latency_ms, "ms"));
    report.note("open-loop generator lateness: " + tail_summary(open.late_ms, "ms"));
    report.note("set-up: " + tail_summary(setup_s, "s"));
    report.note("mean batch " + std::to_string(stack->router->stats().total.mean_batch()));
    return report;
  }

  const double share = 0.25;
  const double req_per_s = closed_loop(*stack, inputs, share * options.seconds, false, closed);
  const serve::ServerStats phase_a = stack->router->stats().total;

  // Traced run: the closed loop again with a span around every send (the
  // tracing overhead), the open loop with send spans, then the in-process
  // pass with InferenceServer traces on.
  Tally closed_timed, inproc;
  const double traced_req_per_s =
      closed_loop(*stack, inputs, share * options.seconds, true, closed_timed);
  wire_open_loop(*stack, inputs, share * options.seconds, true, open);
  const net::NetServerStats wire = stack->server->stats();

  auto config = router_config().server;
  config.trace_capacity = 1 << 14;
  std::vector<serve::TraceRecord> records;
  {
    core::DlFieldSolver& solver = *stack->solver;
    serve::InferenceServer server(solver.model(), inputs.histograms[0].size(), config,
                                  &solver.normalizer());
    serve::SubmitOptions traced;
    traced.trace = true;
    open_loop(
        inputs, share * options.seconds, false,
        [&](size_t idx) { return server.submit(inputs.histograms[idx], traced); },
        [&](const std::vector<double>& out, size_t idx) {
          return bitwise_equal(out, inputs.expected[idx]);
        },
        inproc);
    records = server.trace_snapshot();
  }

  report.attempted = closed.attempted + closed_timed.attempted + open.attempted + inproc.attempted;
  report.failed = closed.failed + closed_timed.failed + open.failed + inproc.failed;
  using serve::TraceStage;
  report.add("serve.queue_wait_us", stage_us(records, TraceStage::kEnqueue, TraceStage::kPop), "us");
  report.add("serve.assemble_us", stage_us(records, TraceStage::kAssemble, TraceStage::kForward),
             "us");
  report.add("serve.forward_us", stage_us(records, TraceStage::kForward, TraceStage::kScatter),
             "us");
  report.add("serve.mean_batch", phase_a.mean_batch(), "count");
  report.add("serve.batches", static_cast<double>(phase_a.batches), "count");
  report.add("serve.expired", static_cast<double>(phase_a.expired), "count");
  report.add("serve.rejected", static_cast<double>(phase_a.rejected), "count");
  report.add("net.send_us", median(open.send_us), "us");
  report.add("net.wire_overhead_us",
             1e3 * (median(open.latency_ms) - median(inproc.latency_ms)), "us");
  report.add("net.requests_decoded", static_cast<double>(wire.requests_decoded), "count");
  report.add("net.protocol_errors", static_cast<double>(wire.protocol_errors), "count");
  report.add("trace.overhead_ratio", traced_req_per_s / req_per_s, "ratio");
  report.note("traced records: " + std::to_string(records.size()) +
              ", in-process latency " + tail_summary(inproc.latency_ms, "ms"));
  return report;
}

}  // namespace perfbench
