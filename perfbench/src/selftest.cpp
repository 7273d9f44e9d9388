// Self-test of the benchmark's own code: seeded inputs are reproducible,
// the metrics-dump and stats parsers read a fixture correctly, and the
// digest catches a one-ulp change.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<std::uint32_t> order_prefix(const Traffic& t, std::uint64_t seed, unsigned stream,
                                        std::size_t n) {
  ClosedLoopOrder order(seed, stream, t);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(order.next());
  return out;
}

std::size_t count_of(const Traffic& t, const char* needle) {
  std::size_t n = 0;
  for (const std::string& r : t.requests) n += r.find(needle) != std::string::npos ? 1 : 0;
  return n;
}

}  // namespace

int run_selftest() {
  // Seeded traffic.
  const Traffic hot1 = make_hot_traffic(7), hot1b = make_hot_traffic(7), hot2 = make_hot_traffic(8);
  check(hot1.requests == hot1b.requests, "serve-hot: same seed, same request bytes");
  check(hot1.requests != hot2.requests, "serve-hot: another seed, other request bytes");
  check(order_prefix(hot1, 7, 0, 1000) == order_prefix(hot1b, 7, 0, 1000),
        "serve-hot: same seed, same closed-loop order");
  check(order_prefix(hot1, 7, 0, 1000) != order_prefix(hot1, 8, 0, 1000) &&
            order_prefix(hot1, 7, 0, 1000) != order_prefix(hot1, 7, 1, 1000),
        "serve-hot: another seed or stream, another order");
  check(hot1.keys == 7 && hot1.warmup.size() == 7, "serve-hot: 7 study keys, one warm-up each");
  check(count_of(hot1, "\"pareto\"") == 42 && count_of(hot1, "\"sensitivity\"") == 7,
        "serve-hot: 15% pareto and 2.5% sensitivity requests");

  const Traffic churn1 = make_churn_traffic(7), churn1b = make_churn_traffic(7);
  const Traffic churn2 = make_churn_traffic(8);
  check(churn1.requests == churn1b.requests &&
            order_prefix(churn1, 7, 0, 1000) == order_prefix(churn1b, 7, 0, 1000),
        "serve-churn: same seed, same request bytes and order");
  check(churn1.requests != churn2.requests &&
            order_prefix(churn1, 7, 0, 1000) != order_prefix(churn2, 8, 0, 1000) &&
            order_prefix(churn1, 7, 0, 1000) != order_prefix(churn1, 7, 1, 1000),
        "serve-churn: another seed or stream, other bytes or order");
  check(churn1.keys == 40 && churn1.warmup.size() == 40, "serve-churn: 40 study keys");
  // Zipf(1) over 40 keys: the most popular key draws 1 / H(40) = 23.3%.
  std::vector<std::size_t> per_key(churn1.keys, 0);
  for (const std::uint32_t i : order_prefix(churn1, 7, 0, 100000)) ++per_key[churn1.key_of[i]];
  const double top = static_cast<double>(*std::max_element(per_key.begin(), per_key.end())) / 1e5;
  check(std::fabs(top - 0.233) < 0.01 && *std::min_element(per_key.begin(), per_key.end()) > 0,
        "serve-churn: Zipf(1) popularity over all 40 keys");
  std::size_t inline_bytes = 0, inline_n = 0;
  for (const std::string& r : churn1.requests) {
    if (r.find("\"kit\": {") != std::string::npos) {
      inline_bytes += r.size();
      ++inline_n;
    }
  }
  check(inline_n == 26 * 4 && inline_bytes / inline_n > 1500,
        "serve-churn: inline-kit requests carry a full kit document");

  // Metrics-dump parsing on a fixture shaped like the daemon's snapshot.
  const std::string before =
      "{\"counters\": {\"serve_requests_completed_total\": 10}, \"gauges\": "
      "{\"serve_queue_depth\": {\"value\": 0, \"high_water\": 2}}, \"histograms\": "
      "{\"serve_request_parse_ns\": {\"count\": 10, \"sum_ns\": 30000, \"buckets\": "
      "[[4095, 10]]}}}";
  const std::string after =
      "{\"counters\": {\"serve_requests_completed_total\": 30}, \"gauges\": {}, "
      "\"histograms\": {\"serve_request_parse_ns\": {\"count\": 30, \"sum_ns\": 130000, "
      "\"buckets\": [[4095, 25], [8191, 4], [\"overflow\", 1]]}, "
      "\"core_profile_area_ns\": {\"count\": 0, \"sum_ns\": 0, \"buckets\": []}}}";
  const MetricsSnapshot m0 = parse_metrics_snapshot(before);
  const MetricsSnapshot m1 = parse_metrics_snapshot(after);
  check(m1.counters.at("serve_requests_completed_total") == 30.0, "metrics dump: counter read");
  check(mean_us_between(m0, m1, "serve_request_parse_ns") == 5.0,
        "metrics dump: histogram mean over an interval (100000 ns / 20 = 5 us)");
  check(mean_us_between(m0, m1, "core_profile_area_ns") == 0.0 &&
            mean_us_between(m0, m1, "absent_ns") == 0.0,
        "metrics dump: empty or absent histogram reads 0");
  const std::string stats =
      "{\"status\": \"ok\", \"queue_high_water\": 3, \"cache\": {\"hits\": 41, \"misses\": 2}}";
  check(stats_field(stats, {"cache", "hits"}) == 41.0 && stats_field(stats, {"queue_high_water"}) == 3.0,
        "stats probe: nested field read");

  // Digest.
  std::vector<double> values = {1.0, 0.1, 12345.678, -2.5e-300};
  Digest a, b, c;
  a.add(values);
  b.add(values);
  values[2] = std::nextafter(values[2], 1e9);
  c.add(values);
  check(a.hex() == b.hex(), "digest: equal outputs, equal digest");
  check(a.hex() != c.hex(), "digest: a one-ulp change is caught");

  return failures;
}

}  // namespace perfbench
