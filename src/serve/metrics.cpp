#include "serve/metrics.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dlpic::serve {

const char* lane_name(size_t lane) {
  static constexpr const char* kNames[kNumLanes] = {"interactive", "bulk"};
  return lane < kNumLanes ? kNames[lane] : "unknown";
}

// ---------------------------------------------------------------------------
// LatencyHistogram

size_t LatencyHistogram::bucket_index(uint64_t us) {
  // Smallest i with us <= 2^i: ceil(log2(us)) computed via bit_width(us-1).
  if (us <= 1) return 0;
  const size_t index = static_cast<size_t>(std::bit_width(us - 1));
  return index < kNumFiniteBuckets ? index : kNumFiniteBuckets;  // overflow bucket
}

uint64_t LatencyHistogram::bucket_upper_bound_us(size_t bucket) {
  return bucket < kNumFiniteBuckets ? (uint64_t{1} << bucket) : UINT64_MAX;
}

void LatencyHistogram::record(uint64_t us) {
  buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  for (size_t i = 0; i < kNumBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_us = sum_us_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// ModelMetrics

uint64_t ModelMetrics::acquire_write() {
  uint64_t v = version_.load(std::memory_order_relaxed);
  for (;;) {
    if (v % 2 == 0 &&
        version_.compare_exchange_weak(v, v + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed))
      return v;
    v = version_.load(std::memory_order_relaxed);
  }
}

void ModelMetrics::record(const BatchAccounting& accounting) {
  const uint64_t v = acquire_write();
  for (size_t lane = 0; lane < kNumLanes; ++lane) {
    if (accounting.served[lane] > 0) {
      served_[lane].fetch_add(accounting.served[lane], std::memory_order_relaxed);
      lane_batches_[lane].fetch_add(1, std::memory_order_relaxed);
    }
    if (accounting.expired[lane] > 0)
      expired_[lane].fetch_add(accounting.expired[lane], std::memory_order_relaxed);
  }
  rejected_.fetch_add(accounting.rejected, std::memory_order_relaxed);
  if (accounting.forward_pass) batches_.fetch_add(1, std::memory_order_relaxed);
  if (accounting.batch_size > max_batch_.load(std::memory_order_relaxed))
    max_batch_.store(accounting.batch_size, std::memory_order_relaxed);
  version_.store(v + 2, std::memory_order_release);
}

void ModelMetrics::record_forward_error() {
  const uint64_t v = acquire_write();
  forward_errors_.fetch_add(1, std::memory_order_relaxed);
  version_.store(v + 2, std::memory_order_release);
}

ModelStats ModelMetrics::snapshot() const {
  ModelStats s;
  for (;;) {
    const uint64_t v0 = version_.load(std::memory_order_acquire);
    if (v0 % 2 != 0) continue;
    s.served = 0;
    s.expired = 0;
    for (size_t lane = 0; lane < kNumLanes; ++lane) {
      s.lanes[lane].served = served_[lane].load(std::memory_order_relaxed);
      s.lanes[lane].expired = expired_[lane].load(std::memory_order_relaxed);
      s.lanes[lane].batches = lane_batches_[lane].load(std::memory_order_relaxed);
      s.served += s.lanes[lane].served;
      s.expired += s.lanes[lane].expired;
    }
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.forward_errors = forward_errors_.load(std::memory_order_relaxed);
    s.max_batch_observed = max_batch_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (version_.load(std::memory_order_relaxed) == v0) break;
  }
  // Histograms sit outside the seqlock: monotone, exact at quiesce.
  for (size_t lane = 0; lane < kNumLanes; ++lane)
    s.lanes[lane].latency = latency_[lane].snapshot();
  return s;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

ModelMetrics* MetricsRegistry::add_model(std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto entry = std::make_unique<ModelEntry>();
  entry->name = std::move(name);
  ModelMetrics* metrics = &entry->metrics;
  models_.push_back(std::move(entry));
  return metrics;
}

size_t MetricsRegistry::model_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

std::vector<ModelStats> MetricsRegistry::snapshot_models_locked() const {
  std::vector<ModelStats> snapshots;
  snapshots.reserve(models_.size());
  for (const auto& model : models_) {
    snapshots.push_back(model->metrics.snapshot());
    snapshots.back().name = model->name;
  }
  return snapshots;
}

void MetricsRegistry::register_gauge(std::string name, std::string label_key,
                                     std::string label_value,
                                     std::function<size_t()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_.push_back(Gauge{std::move(name), std::move(label_key), std::move(label_value),
                          std::move(fn)});
}

namespace {

ServerStats sum_models(const std::vector<ModelStats>& models) {
  ServerStats total;
  for (const ModelStats& s : models) {
    total.requests += s.served + s.expired + s.rejected;
    total.served += s.served;
    total.batches += s.batches;
    total.expired += s.expired;
    total.rejected += s.rejected;
    total.forward_errors += s.forward_errors;
    total.max_batch_observed = std::max(total.max_batch_observed, s.max_batch_observed);
  }
  return total;
}

/// `name{model="m",lane="l"} value` with empty labels omitted. Label values
/// are escaped as the text format requires (`\\`, `\"`, `\n`).
void prom_line(std::ostringstream& out, const std::string& name,
               std::initializer_list<std::pair<const char*, std::string>> labels,
               uint64_t value) {
  out << name;
  bool first = true;
  for (const auto& [key, label_value] : labels) {
    if (label_value.empty()) continue;
    out << (first ? '{' : ',') << key << "=\"";
    for (char c : label_value) {
      if (c == '\\' || c == '"') out << '\\' << c;
      else if (c == '\n') out << "\\n";
      else out << c;
    }
    out << '"';
    first = false;
  }
  if (!first) out << '}';
  out << ' ' << value << '\n';
}

void prom_header(std::ostringstream& out, const std::string& name, const char* type,
                 const char* help) {
  out << "# HELP " << name << ' ' << help << '\n';
  out << "# TYPE " << name << ' ' << type << '\n';
}

std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      out += "\\u00";
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) throw std::runtime_error("MetricsRegistry: cannot open " + path);
  // A full device accepts the open and the buffered write and fails only at
  // flush, so the stream state is checked after flushing.
  file << text;
  file.flush();
  if (!file) throw std::runtime_error("MetricsRegistry: cannot write " + path);
}

}  // namespace

ServerStats MetricsRegistry::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sum_models(snapshot_models_locked());
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;

  const char* kCounter = "counter";
  const char* kGauge = "gauge";

  // One snapshot per model feeds every family below, so the server totals
  // are exactly the sum of the per-model rows of this scrape.
  const std::vector<ModelStats> models = snapshot_models_locked();
  const ServerStats total = sum_models(models);
  prom_header(out, "dlpic_server_requests_total", kCounter,
              "Requests popped by any batcher (served + expired + rejected)");
  prom_line(out, "dlpic_server_requests_total", {}, total.requests);
  prom_header(out, "dlpic_server_served_total", kCounter,
              "Requests that went through a forward pass");
  prom_line(out, "dlpic_server_served_total", {}, total.served);
  prom_header(out, "dlpic_server_expired_total", kCounter,
              "Requests rejected with DeadlineExpired");
  prom_line(out, "dlpic_server_expired_total", {}, total.expired);
  prom_header(out, "dlpic_server_rejected_total", kCounter,
              "Malformed requests failed before assembly");
  prom_line(out, "dlpic_server_rejected_total", {}, total.rejected);
  prom_header(out, "dlpic_server_batches_total", kCounter, "Forward passes run");
  prom_line(out, "dlpic_server_batches_total", {}, total.batches);
  prom_header(out, "dlpic_server_forward_errors_total", kCounter,
              "Forward passes that threw");
  prom_line(out, "dlpic_server_forward_errors_total", {}, total.forward_errors);
  prom_header(out, "dlpic_server_max_batch", kGauge, "Largest coalesced batch seen");
  prom_line(out, "dlpic_server_max_batch", {}, total.max_batch_observed);

  // Callback gauges (queue depths etc.), grouped by name for valid
  // exposition when one name carries several label values.
  for (size_t i = 0; i < gauges_.size(); ++i) {
    const Gauge& gauge = gauges_[i];
    if (i == 0 || gauges_[i - 1].name != gauge.name)
      prom_header(out, gauge.name, kGauge, "Callback gauge");
    prom_line(out, gauge.name, {{gauge.label_key.c_str(), gauge.label_value}},
              gauge.fn ? gauge.fn() : 0);
  }

  // Per-model counters + per-lane latency histograms.
  if (models.empty()) return out.str();
  prom_header(out, "dlpic_requests_served_total", kCounter,
              "Requests served, per model and lane");
  for (const ModelStats& s : models)
    for (size_t lane = 0; lane < kNumLanes; ++lane)
      prom_line(out, "dlpic_requests_served_total",
                {{"model", s.name}, {"lane", lane_name(lane)}}, s.lanes[lane].served);
  prom_header(out, "dlpic_requests_expired_total", kCounter,
              "Requests expired, per model and lane");
  for (const ModelStats& s : models)
    for (size_t lane = 0; lane < kNumLanes; ++lane)
      prom_line(out, "dlpic_requests_expired_total",
                {{"model", s.name}, {"lane", lane_name(lane)}}, s.lanes[lane].expired);
  prom_header(out, "dlpic_lane_batches_total", kCounter,
              "Forward passes carrying the lane, per model and lane");
  for (const ModelStats& s : models)
    for (size_t lane = 0; lane < kNumLanes; ++lane)
      prom_line(out, "dlpic_lane_batches_total",
                {{"model", s.name}, {"lane", lane_name(lane)}}, s.lanes[lane].batches);
  prom_header(out, "dlpic_requests_rejected_total", kCounter,
              "Malformed requests failed before assembly, per model");
  for (const ModelStats& s : models)
    prom_line(out, "dlpic_requests_rejected_total", {{"model", s.name}}, s.rejected);
  prom_header(out, "dlpic_batches_total", kCounter, "Forward passes run, per model");
  for (const ModelStats& s : models)
    prom_line(out, "dlpic_batches_total", {{"model", s.name}}, s.batches);
  prom_header(out, "dlpic_forward_errors_total", kCounter,
              "Forward passes that threw, per model");
  for (const ModelStats& s : models)
    prom_line(out, "dlpic_forward_errors_total", {{"model", s.name}}, s.forward_errors);
  prom_header(out, "dlpic_max_batch", kGauge, "Largest coalesced batch seen, per model");
  for (const ModelStats& s : models)
    prom_line(out, "dlpic_max_batch", {{"model", s.name}}, s.max_batch_observed);
  prom_header(out, "dlpic_request_latency_us", "histogram",
              "Submit-to-scatter latency of served requests, microseconds");
  for (const ModelStats& s : models) {
    for (size_t lane = 0; lane < kNumLanes; ++lane) {
      const HistogramSnapshot& h = s.lanes[lane].latency;
      uint64_t cumulative = 0;
      for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
        cumulative += h.buckets[b];
        const std::string le =
            b < LatencyHistogram::kNumFiniteBuckets
                ? std::to_string(LatencyHistogram::bucket_upper_bound_us(b))
                : "+Inf";
        prom_line(out, "dlpic_request_latency_us_bucket",
                  {{"model", s.name}, {"lane", lane_name(lane)}, {"le", le}}, cumulative);
      }
      prom_line(out, "dlpic_request_latency_us_sum",
                {{"model", s.name}, {"lane", lane_name(lane)}}, h.sum_us);
      prom_line(out, "dlpic_request_latency_us_count",
                {{"model", s.name}, {"lane", lane_name(lane)}}, h.count);
    }
  }
  return out.str();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;

  const std::vector<ModelStats> models = snapshot_models_locked();
  const ServerStats total = sum_models(models);
  out << "{\n  \"server\": {"
      << "\"requests\": " << total.requests << ", \"served\": " << total.served
      << ", \"expired\": " << total.expired << ", \"rejected\": " << total.rejected
      << ", \"batches\": " << total.batches
      << ", \"forward_errors\": " << total.forward_errors
      << ", \"max_batch_observed\": " << total.max_batch_observed << "},\n";

  out << "  \"gauges\": [";
  for (size_t i = 0; i < gauges_.size(); ++i) {
    const Gauge& gauge = gauges_[i];
    if (i > 0) out << ", ";
    out << "{\"name\": \"" << json_escape(gauge.name) << "\"";
    if (!gauge.label_key.empty())
      out << ", \"" << json_escape(gauge.label_key) << "\": \""
          << json_escape(gauge.label_value) << "\"";
    out << ", \"value\": " << (gauge.fn ? gauge.fn() : 0) << "}";
  }
  out << "],\n";

  out << "  \"models\": [";
  for (size_t id = 0; id < models.size(); ++id) {
    const ModelStats& s = models[id];
    if (id > 0) out << ",";
    out << "\n    {\"name\": \"" << json_escape(s.name) << "\", \"id\": " << id
        << ", \"served\": " << s.served << ", \"expired\": " << s.expired
        << ", \"rejected\": " << s.rejected << ", \"batches\": " << s.batches
        << ", \"forward_errors\": " << s.forward_errors
        << ", \"max_batch_observed\": " << s.max_batch_observed << ", \"lanes\": [";
    for (size_t lane = 0; lane < kNumLanes; ++lane) {
      const LaneStats& l = s.lanes[lane];
      if (lane > 0) out << ", ";
      out << "{\"lane\": \"" << lane_name(lane) << "\", \"served\": " << l.served
          << ", \"expired\": " << l.expired << ", \"batches\": " << l.batches
          << ", \"latency\": {\"count\": " << l.latency.count
          << ", \"sum_us\": " << l.latency.sum_us << ", \"buckets\": [";
      for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
        if (b > 0) out << ", ";
        out << l.latency.buckets[b];
      }
      out << "]}}";
    }
    out << "]}";
  }
  out << (models.empty() ? "]\n}" : "\n  ]\n}");
  out << '\n';
  return out.str();
}

void MetricsRegistry::write_prometheus(const std::string& path) const {
  write_text(path, to_prometheus());
}

void MetricsRegistry::write_json(const std::string& path) const {
  write_text(path, to_json());
}

}  // namespace dlpic::serve
