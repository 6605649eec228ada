/// \file test_metrics.cpp
/// Metrics-layer contract suite: log2 histogram bucket boundaries are exact,
/// the per-model seqlock counter group stays coherent under concurrent
/// writers (asserted by a racing reader under TSan), the Prometheus text
/// exposition matches a golden line set, the JSON snapshot carries the same
/// data, InferenceServer::stats() totals close under full concurrent
/// traffic, and every mid-traffic scrape is coherent: its server totals are
/// the sum of its own per-model rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "math/rng.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "serve/inference_server.hpp"
#include "serve/metrics.hpp"

namespace {

using namespace dlpic;
using serve::BatchAccounting;
using serve::InferenceServer;
using serve::LatencyHistogram;
using serve::MetricsRegistry;
using serve::ModelMetrics;
using serve::ModelStats;
using serve::Priority;
using serve::ServerConfig;

constexpr size_t kInteractive = static_cast<size_t>(Priority::kInteractive);
constexpr size_t kBulk = static_cast<size_t>(Priority::kBulk);

TEST(LatencyHistogramTest, BucketBoundariesAreExact) {
  // Bucket i counts us <= 2^i (above the previous bound): the boundary value
  // 2^i lands IN bucket i, and 2^i + 1 in bucket i + 1.
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_index(5), 3u);
  for (size_t i = 1; i < LatencyHistogram::kNumFiniteBuckets; ++i) {
    const uint64_t bound = uint64_t{1} << i;
    EXPECT_EQ(LatencyHistogram::bucket_index(bound), i) << "us=" << bound;
    EXPECT_EQ(LatencyHistogram::bucket_index(bound + 1), i + 1) << "us=" << bound + 1;
  }
  // The last finite bound is 2^21 us (~2.1 s); anything beyond overflows.
  const uint64_t last = uint64_t{1} << (LatencyHistogram::kNumFiniteBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(last),
            LatencyHistogram::kNumFiniteBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(last + 1), LatencyHistogram::kNumFiniteBuckets);
  EXPECT_EQ(LatencyHistogram::bucket_index(UINT64_MAX),
            LatencyHistogram::kNumFiniteBuckets);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound_us(0), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound_us(21), 2097152u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound_us(LatencyHistogram::kNumFiniteBuckets),
            UINT64_MAX);
}

TEST(LatencyHistogramTest, RecordAndSnapshot) {
  LatencyHistogram h;
  for (uint64_t us : {0ull, 1ull, 2ull, 3ull, 1000ull, 5'000'000ull}) h.record(us);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum_us, 0u + 1 + 2 + 3 + 1000 + 5'000'000);
  EXPECT_EQ(s.buckets[0], 2u);   // 0, 1
  EXPECT_EQ(s.buckets[1], 1u);   // 2
  EXPECT_EQ(s.buckets[2], 1u);   // 3
  EXPECT_EQ(s.buckets[10], 1u);  // 1000 <= 1024
  EXPECT_EQ(s.buckets[LatencyHistogram::kNumFiniteBuckets], 1u);  // overflow
  EXPECT_NEAR(s.mean_us(), static_cast<double>(s.sum_us) / 6.0, 1e-9);
}

// The headline coherency guarantee: with writers hammering record(), every
// concurrent snapshot sees whole batches only — no torn group reads. Runs
// under TSan in CI, so the seqlock's atomics are also checked for
// data-race freedom.
TEST(ModelMetricsTest, SnapshotsStayCoherentUnderConcurrentWriters) {
  ModelMetrics metrics;
  constexpr size_t kWriters = 3;
  constexpr size_t kBatchesPerWriter = 3000;
  BatchAccounting delta;
  delta.served[kInteractive] = 2;
  delta.expired[kBulk] = 1;
  delta.forward_pass = true;
  delta.batch_size = 2;

  std::atomic<bool> done{false};
  std::atomic<size_t> incoherent{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const ModelStats s = metrics.snapshot();
      size_t lane_served = 0, lane_expired = 0;
      for (size_t lane = 0; lane < serve::kNumLanes; ++lane) {
        lane_served += s.lanes[lane].served;
        lane_expired += s.lanes[lane].expired;
      }
      // The aggregate fields are derived inside the same coherent read.
      if (s.served != lane_served || s.expired != lane_expired)
        incoherent.fetch_add(1, std::memory_order_relaxed);
      // Fixed delta shape: served is always exactly 2x the expired count.
      if (s.served != 2 * s.expired) incoherent.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&] {
      for (size_t i = 0; i < kBatchesPerWriter; ++i) {
        metrics.record(delta);
        metrics.record_latency(kInteractive, 100);
        metrics.record_latency(kInteractive, 3000);
      }
    });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(incoherent.load(), 0u);
  const ModelStats s = metrics.snapshot();
  EXPECT_EQ(s.served, kWriters * kBatchesPerWriter * 2);
  EXPECT_EQ(s.lanes[kInteractive].served, kWriters * kBatchesPerWriter * 2);
  EXPECT_EQ(s.lanes[kBulk].expired, kWriters * kBatchesPerWriter);
  EXPECT_EQ(s.lanes[kInteractive].batches, kWriters * kBatchesPerWriter);
  // Histograms quiesced with the writers: counts are exact now.
  EXPECT_EQ(s.lanes[kInteractive].latency.count, kWriters * kBatchesPerWriter * 2);
  EXPECT_EQ(s.lanes[kInteractive].latency.buckets[7], kWriters * kBatchesPerWriter);
  EXPECT_EQ(s.lanes[kInteractive].latency.buckets[12], kWriters * kBatchesPerWriter);
}

// Golden test of the Prometheus text exposition: a registry with two models
// and two gauges renders exactly these lines. The format (names, label sets,
// cumulative le buckets, escaped label values) is a public scrape contract.
TEST(MetricsRegistryTest, PrometheusExpositionMatchesGolden) {
  MetricsRegistry registry;
  ModelMetrics* model = registry.add_model("phi");
  // A name holding every character the text format escapes in label values.
  registry.add_model("a\"b\\c\nd");
  registry.register_gauge("dlpic_queue_depth", "lane", "interactive", [] { return 3; });
  registry.register_gauge("dlpic_queue_depth", "lane", "bulk", [] { return 7; });

  BatchAccounting delta;
  delta.served[kInteractive] = 2;
  delta.served[kBulk] = 1;
  delta.expired[kBulk] = 1;
  delta.rejected = 1;
  delta.forward_pass = true;
  delta.batch_size = 3;
  model->record(delta);
  model->record_forward_error();
  model->record_latency(kInteractive, 3);    // bucket le="4"
  model->record_latency(kInteractive, 4);    // bucket le="4"
  model->record_latency(kBulk, 3000000);     // beyond 2^21 us: +Inf bucket

  const std::string text = registry.to_prometheus();
  const std::vector<std::string> golden = {
      "# TYPE dlpic_server_requests_total counter",
      "dlpic_server_requests_total 5",
      "dlpic_server_served_total 3",
      "dlpic_server_expired_total 1",
      "dlpic_server_rejected_total 1",
      "dlpic_server_batches_total 1",
      "dlpic_server_forward_errors_total 1",
      "dlpic_server_max_batch 3",
      "# TYPE dlpic_queue_depth gauge",
      "dlpic_queue_depth{lane=\"interactive\"} 3",
      "dlpic_queue_depth{lane=\"bulk\"} 7",
      "dlpic_requests_served_total{model=\"phi\",lane=\"interactive\"} 2",
      "dlpic_requests_served_total{model=\"phi\",lane=\"bulk\"} 1",
      "dlpic_requests_expired_total{model=\"phi\",lane=\"bulk\"} 1",
      "dlpic_lane_batches_total{model=\"phi\",lane=\"interactive\"} 1",
      "dlpic_requests_rejected_total{model=\"phi\"} 1",
      "dlpic_batches_total{model=\"phi\"} 1",
      "dlpic_forward_errors_total{model=\"phi\"} 1",
      "dlpic_max_batch{model=\"phi\"} 3",
      "# TYPE dlpic_request_latency_us histogram",
      // Cumulative buckets: nothing at le="2", both samples by le="4" ...
      "dlpic_request_latency_us_bucket{model=\"phi\",lane=\"interactive\",le=\"2\"} 0",
      "dlpic_request_latency_us_bucket{model=\"phi\",lane=\"interactive\",le=\"4\"} 2",
      "dlpic_request_latency_us_bucket{model=\"phi\",lane=\"interactive\",le=\"2097152\"} 2",
      "dlpic_request_latency_us_bucket{model=\"phi\",lane=\"interactive\",le=\"+Inf\"} 2",
      "dlpic_request_latency_us_sum{model=\"phi\",lane=\"interactive\"} 7",
      "dlpic_request_latency_us_count{model=\"phi\",lane=\"interactive\"} 2",
      // The 3 s bulk sample overflows every finite bucket.
      "dlpic_request_latency_us_bucket{model=\"phi\",lane=\"bulk\",le=\"2097152\"} 0",
      "dlpic_request_latency_us_bucket{model=\"phi\",lane=\"bulk\",le=\"+Inf\"} 1",
      "dlpic_request_latency_us_count{model=\"phi\",lane=\"bulk\"} 1",
      // The second model's name, escaped as `\\`, `\"` and `\n`.
      "dlpic_requests_rejected_total{model=\"a\\\"b\\\\c\\nd\"} 0",
      "dlpic_request_latency_us_count{model=\"a\\\"b\\\\c\\nd\",lane=\"bulk\"} 0",
  };
  // Every golden line must appear as a COMPLETE exposition line.
  std::vector<std::string> lines;
  {
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) lines.push_back(line);
  }
  for (const std::string& want : golden) {
    bool found = false;
    for (const std::string& line : lines)
      if (line == want) {
        found = true;
        break;
      }
    EXPECT_TRUE(found) << "missing exposition line: " << want << "\n--- full text ---\n"
                       << text;
  }
}

TEST(MetricsRegistryTest, JsonSnapshotCarriesTheSameData) {
  MetricsRegistry registry;
  ModelMetrics* model = registry.add_model("psi\"q");  // name needs escaping
  // The Prometheus golden test's name, and one holding a control character
  // with no short escape: both must stay distinct from their printable
  // characters alone.
  registry.add_model("a\"b\\c\nd");
  registry.add_model("e\x01g");
  registry.register_gauge("dlpic_live_workers", "", "", [] { return 2; });

  BatchAccounting delta;
  delta.served[kBulk] = 2;
  delta.forward_pass = true;
  delta.batch_size = 2;
  model->record(delta);
  model->record_latency(kBulk, 10);

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"server\": {\"requests\": 2, \"served\": 2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"psi\\\"q\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"a\\\"b\\\\c\\nd\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"e\\u0001g\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"dlpic_live_workers\", \"value\": 2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"lane\": \"bulk\", \"served\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency\": {\"count\": 1, \"sum_us\": 10"), std::string::npos)
      << json;
  // Brace balance: a cheap structural sanity check without a JSON parser.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string) {
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(MetricsRegistryTest, WritesExpositionFiles) {
  MetricsRegistry registry;
  registry.add_model("m");
  const std::string prom_path = ::testing::TempDir() + "dlpic_metrics_test.prom";
  const std::string json_path = ::testing::TempDir() + "dlpic_metrics_test.json";
  registry.write_prometheus(prom_path);
  registry.write_json(json_path);
  for (const auto& path : {prom_path, json_path}) {
    std::ifstream file(path);
    ASSERT_TRUE(file.good()) << path;
    std::stringstream content;
    content << file.rdbuf();
    EXPECT_FALSE(content.str().empty()) << path;
  }
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
  EXPECT_THROW(registry.write_prometheus("/nonexistent-dir/x.prom"), std::runtime_error);
  // A full device opens and buffers fine and fails only at flush: the
  // failed write must still surface, naming the path.
  for (const bool json : {false, true}) {
    try {
      json ? registry.write_json("/dev/full") : registry.write_prometheus("/dev/full");
      ADD_FAILURE() << "write to /dev/full returned silently (json=" << json << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
    }
  }
}

// stats() sums one coherent seqlock snapshot per model, so the invariant
// requests == served + expired + rejected must close in EVERY stats() call,
// even mid-traffic with two workers writing.
TEST(ServerStatsTest, TotalsCloseUnderConcurrentTraffic) {
  constexpr size_t kInputDim = 48;
  nn::MlpSpec spec;
  spec.input_dim = kInputDim;
  spec.output_dim = 12;
  spec.hidden = 32;
  spec.depth = 2;
  spec.seed = 31;
  nn::Sequential model = nn::build_mlp(spec);

  ServerConfig cfg;
  cfg.worker_threads = 2;
  cfg.context_worker_cap = 1;
  cfg.max_batch = 8;
  cfg.max_wait_us = 200;
  InferenceServer server(model, kInputDim, cfg);

  constexpr size_t kProducers = 3;
  constexpr size_t kPerProducer = 150;
  std::atomic<bool> stop_reader{false};
  std::atomic<size_t> violations{0};
  std::atomic<size_t> reads{0};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_acquire)) {
      const serve::ServerStats s = server.stats();
      reads.fetch_add(1, std::memory_order_relaxed);
      if (s.requests != s.served + s.expired + s.rejected)
        violations.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<std::vector<double>>>> futures(kProducers);
  for (size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      math::Rng rng(400 + p);
      for (size_t i = 0; i < kPerProducer; ++i) {
        std::vector<double> x(kInputDim);
        for (auto& v : x) v = rng.uniform(0.0, 10.0);
        serve::SubmitOptions options;
        options.priority = (i % 2 == 0) ? Priority::kInteractive : Priority::kBulk;
        if (i % 7 == 0)  // a slice of already-expired requests mixes the categories
          options.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
        futures[p].push_back(server.submit(std::move(x), options));
      }
    });
  for (auto& t : producers) t.join();
  for (auto& mine : futures)
    for (auto& f : mine) {
      try {
        f.get();
      } catch (const serve::DeadlineExpired&) {
      }
    }
  server.shutdown();
  stop_reader.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0u) << "over " << reads.load() << " concurrent reads";
  GTEST_LOG_(INFO) << reads.load() << " concurrent stats() reads, 0 violations";

  // Quiesced: exact closure against what was submitted.
  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.requests, kProducers * kPerProducer);
  EXPECT_EQ(s.served + s.expired, kProducers * kPerProducer);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.drained, 0u);
  EXPECT_GT(s.expired, 0u);  // the pre-expired slice really expired

  // The per-model view and the latency histogram close against the same
  // totals (histograms record at scatter — exact once traffic quiesced).
  const ModelStats m = server.model_stats(0);
  EXPECT_EQ(m.served, s.served);
  EXPECT_EQ(m.expired, s.expired);
  size_t histogram_count = 0;
  for (size_t lane = 0; lane < serve::kNumLanes; ++lane)
    histogram_count += m.lanes[lane].latency.count;
  EXPECT_EQ(histogram_count, s.served);

  // The scrape surface agrees with stats().
  const std::string text = server.metrics_prometheus();
  EXPECT_NE(text.find("dlpic_server_requests_total " + std::to_string(s.requests)),
            std::string::npos);
  EXPECT_NE(text.find("dlpic_server_served_total " + std::to_string(s.served)),
            std::string::npos);
  EXPECT_NE(text.find("dlpic_live_workers 0"), std::string::npos);  // shut down
}

/// Sum and max of one Prometheus scrape's sample values per family name
/// (labels dropped).
struct FamilyValues {
  uint64_t sum = 0;
  uint64_t max = 0;
};
std::map<std::string, FamilyValues> prom_families(const std::string& text) {
  std::map<std::string, FamilyValues> families;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') continue;
    const uint64_t value = std::stoull(line.substr(line.rfind(' ') + 1));
    FamilyValues& family = families[line.substr(0, line.find_first_of("{ "))];
    family.sum += value;
    family.max = std::max(family.max, value);
  }
  return families;
}

/// The number after `"key": ` at or after `from` in a JSON snapshot.
uint64_t json_field(const std::string& json, size_t from, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) throw std::runtime_error("missing JSON field " + key);
  return std::stoull(json.substr(at + needle.size()));
}

// One scrape is one snapshot per model: every server total of a mid-traffic
// scrape equals the sum of the per-model rows of the SAME text, and the
// accounting closes inside it. Two models, two workers, both lanes and a
// slice of expired deadlines keep every counter moving while a scraper
// reads both exposition formats.
TEST(MetricsRegistryTest, ScrapesStayCoherentUnderConcurrentTraffic) {
  constexpr size_t kInputDim = 32;
  nn::MlpSpec spec;
  spec.input_dim = kInputDim;
  spec.output_dim = 8;
  spec.hidden = 24;
  spec.depth = 2;
  spec.seed = 41;
  nn::Sequential model_a = nn::build_mlp(spec);
  spec.seed = 42;
  nn::Sequential model_b = nn::build_mlp(spec);

  ServerConfig cfg;
  cfg.worker_threads = 2;
  cfg.context_worker_cap = 1;
  InferenceServer server(cfg);
  serve::ModelConfig mc;
  mc.max_batch = 8;
  mc.max_wait_us = 200;
  const size_t ids[2] = {server.add_model("a", model_a, kInputDim, mc),
                         server.add_model("b", model_b, kInputDim, mc)};

  std::atomic<bool> stop{false};
  std::atomic<size_t> scrapes{0};
  std::atomic<size_t> incoherent{0};
  std::thread scraper([&] {
    do {
      auto prom = prom_families(server.metrics_prometheus());
      const uint64_t requests = prom["dlpic_server_requests_total"].sum;
      const uint64_t served = prom["dlpic_server_served_total"].sum;
      const uint64_t expired = prom["dlpic_server_expired_total"].sum;
      const uint64_t rejected = prom["dlpic_server_rejected_total"].sum;
      const bool prom_ok =
          requests == served + expired + rejected &&
          served == prom["dlpic_requests_served_total"].sum &&
          expired == prom["dlpic_requests_expired_total"].sum &&
          rejected == prom["dlpic_requests_rejected_total"].sum &&
          prom["dlpic_server_batches_total"].sum == prom["dlpic_batches_total"].sum &&
          prom["dlpic_server_forward_errors_total"].sum ==
              prom["dlpic_forward_errors_total"].sum &&
          prom["dlpic_server_max_batch"].sum == prom["dlpic_max_batch"].max;

      const std::string json = server.metrics_json();
      const size_t server_at = json.find("\"server\": {");
      const uint64_t j_requests = json_field(json, server_at, "requests");
      const uint64_t j_served = json_field(json, server_at, "served");
      const uint64_t j_expired = json_field(json, server_at, "expired");
      const uint64_t j_rejected = json_field(json, server_at, "rejected");
      const uint64_t j_batches = json_field(json, server_at, "batches");
      uint64_t m_served = 0, m_expired = 0, m_rejected = 0, m_batches = 0;
      for (size_t at = json.find("\"id\": "); at != std::string::npos;
           at = json.find("\"id\": ", at + 1)) {
        m_served += json_field(json, at, "served");
        m_expired += json_field(json, at, "expired");
        m_rejected += json_field(json, at, "rejected");
        m_batches += json_field(json, at, "batches");
      }
      const bool json_ok = j_requests == j_served + j_expired + j_rejected &&
                           j_served == m_served && j_expired == m_expired &&
                           j_rejected == m_rejected && j_batches == m_batches;
      if (!prom_ok || !json_ok) incoherent.fetch_add(1, std::memory_order_relaxed);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    } while (!stop.load(std::memory_order_acquire));
  });

  constexpr size_t kProducers = 3;
  constexpr size_t kPerProducer = 1000;
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<std::vector<double>>>> futures(kProducers);
  for (size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      math::Rng rng(700 + p);
      for (size_t i = 0; i < kPerProducer; ++i) {
        std::vector<double> x(kInputDim);
        for (auto& v : x) v = rng.uniform(0.0, 10.0);
        serve::SubmitOptions options;
        options.model_id = ids[(i + p) % 2];
        options.priority = (i % 3 == 0) ? Priority::kInteractive : Priority::kBulk;
        if (i % 5 == 0)
          options.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
        futures[p].push_back(server.submit(std::move(x), options));
      }
    });
  for (auto& t : producers) t.join();
  size_t expired = 0;
  for (auto& mine : futures)
    for (auto& f : mine) {
      try {
        f.get();
      } catch (const serve::DeadlineExpired&) {
        ++expired;
      }
    }
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(incoherent.load(), 0u) << "over " << scrapes.load() << " concurrent scrapes";
  GTEST_LOG_(INFO) << scrapes.load() << " concurrent scrapes, " << incoherent.load()
                   << " incoherent";
  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.requests, kProducers * kPerProducer);
  EXPECT_EQ(s.expired, expired);
  EXPECT_GT(s.expired, 0u);
  EXPECT_EQ(server.model_stats(ids[0]).served + server.model_stats(ids[1]).served, s.served);
}

}  // namespace
