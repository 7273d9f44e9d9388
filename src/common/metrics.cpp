#include "common/metrics.hpp"

#include "common/error.hpp"
#include "common/jsonfmt.hpp"
#include "common/strfmt.hpp"

namespace ipass::metrics {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

void check_name(const std::string& name) {
  require(valid_metric_name(name),
          strf("metrics: name '%s' must match [a-zA-Z_][a-zA-Z0-9_]*",
               name.c_str()));
}

std::string u64(std::uint64_t v) {
  return strf("%llu", static_cast<unsigned long long>(v));
}

std::string i64(std::int64_t v) {
  return strf("%lld", static_cast<long long>(v));
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lk(m_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lk(m_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lk(m_);
  return histograms_[name];
}

std::string MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lk(m_);
  std::string out;
  out.reserve(1024);
  out += "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, name);
    out += ": " + u64(c.value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, name);
    out += ": {\"value\": " + i64(g.value()) +
           ", \"high_water\": " + i64(g.high_water()) + "}";
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": " + u64(h.count()) +
           ", \"sum_ns\": " + u64(h.sum_ns()) + ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h.bucket(b);
      if (n == 0) continue;  // sparse: empty buckets carry no information
      if (!first_bucket) out += ", ";
      first_bucket = false;
      if (b == Histogram::kOverflowBucket) {
        out += "[\"overflow\", " + u64(n) + "]";
      } else {
        out += "[" + u64(Histogram::bucket_upper_ns(b)) + ", " + u64(n) + "]";
      }
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard<std::mutex> lk(m_);
  std::string out;
  out.reserve(2048);
  for (const auto& [name, c] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + u64(c.value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + i64(g.value()) + "\n";
    out += "# TYPE " + name + "_high_water gauge\n";
    out += name + "_high_water " + i64(g.high_water()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += "# TYPE " + name + " histogram\n";
    // Cumulative buckets with an upper bound in seconds, per convention.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      cumulative += h.bucket(b);
      if (b == Histogram::kOverflowBucket) {
        out += name + "_bucket{le=\"+Inf\"} " + u64(cumulative) + "\n";
      } else {
        const double le_seconds =
            static_cast<double>(Histogram::bucket_upper_ns(b)) * 1e-9;
        out += name + strf("_bucket{le=\"%.9g\"} ", le_seconds) + u64(cumulative) + "\n";
      }
    }
    out += name + "_sum " + strf("%.9g", static_cast<double>(h.sum_ns()) * 1e-9) + "\n";
    out += name + "_count " + u64(h.count()) + "\n";
  }
  return out;
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

void set_profiling_enabled(bool enabled) noexcept {
  profiling_flag().store(enabled, std::memory_order_relaxed);
}

}  // namespace ipass::metrics
