// Shared pieces of the ipass end-to-end benchmark: timing and percentile
// helpers, the output digest, /proc readers, the seeded serve traffic and
// the metrics-dump parser.  The benchmark sits outside the program: it only
// calls the library's public headers and talks to ipass_serve over TCP.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated quantile (q in [0, 1]) of a copy of `values`; 0 for an
// empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// FNV-1a 64 over the "%.17g" text of every value: two outputs digest equal
// exactly when every value is bit-identical (up to the sign of NaN payloads,
// which no engine produces).
class Digest {
 public:
  void add(const std::vector<double>& values);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

// Peak resident set (VmHWM) and user+system CPU time of a process; pid 0 is
// this process.  Return -1 when /proc cannot be read.
double vm_hwm_mib(int pid);
double cpu_seconds(int pid);

// What one perfbench run reports.  A traced run computes its per-layer
// metrics here; an untraced run is one segment whose raw samples run.py
// pools with the other segments' into the end-to-end metrics.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> info;  // counts, settings, per-segment scalars
  std::string to_json() const;
};

// ------------------------------------------------------------ serve traffic

// The seeded request vocabulary of a serve workload.  Responses depend only
// on the request text, so each distinct text has one reference response.
struct Traffic {
  std::vector<std::string> requests;
  std::vector<std::uint32_t> key_of;   // study-cache key index per request
  std::size_t keys = 0;
  std::vector<std::uint32_t> warmup;   // first request of every key
  // Cumulative popularity over `requests` (serve-churn's Zipf draws); empty
  // when every request is equally popular (serve-hot's shuffled passes).
  std::vector<double> popularity_cdf;
};

inline constexpr unsigned kConnections = 2;

// serve-hot: the 7 built-in kits at full scope with seeded volume/weight
// overrides, 15% pareto and 2.5% sensitivity requests.
Traffic make_hot_traffic(std::uint64_t seed);
// serve-churn: 40 study keys (built-in kits x both scopes plus inline kit
// variants) with Zipf popularity.
Traffic make_churn_traffic(std::uint64_t seed);

// The closed loop's request order on one connection (a stream of its own
// per seed and `stream`): seeded passes over a shuffled vocabulary, or
// independent draws by popularity when the traffic has one.
class ClosedLoopOrder {
 public:
  ClosedLoopOrder(std::uint64_t seed, unsigned stream, const Traffic& traffic);
  std::uint32_t next();

 private:
  std::uint64_t state_;
  std::vector<std::uint32_t> perm_;
  std::size_t pos_;
  const std::vector<double>& cdf_;
  ipass::Pcg32 draws_;
};

// --------------------------------------------------------- metrics parsing

struct HistogramStat {
  double count = 0.0;
  double sum_ns = 0.0;
};

// The daemon's `--metrics FILE` JSON snapshot (counters and histogram
// count/sum; buckets are not needed for means).
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, HistogramStat> histograms;
};

MetricsSnapshot parse_metrics_snapshot(const std::string& text);

// Mean of histogram `name` in microseconds over the interval between two
// snapshots (0 when nothing was recorded).
double mean_us_between(const MetricsSnapshot& before, const MetricsSnapshot& after,
                       const std::string& name);

// A numeric field of a stats-probe response, by path ("cache", "hits").
double stats_field(const std::string& stats_json, const std::vector<std::string>& path);

// ----------------------------------------------------------------- runners

struct ServeConfig {
  std::string workload;  // "serve-hot" or "serve-churn"
  std::uint64_t seed = 1;
  unsigned segment = 0;  // which segment of an untraced run this process is
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;
  std::string workdir;  // fresh journals and metrics dumps go here
};

struct StudyConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digest_file;
  bool print_digests = false;
};

RunResult run_serve(const ServeConfig& config);
RunResult run_study(const StudyConfig& config);
// Checks the benchmark's own code; prints one line per check, returns the
// number of failures.
int run_selftest();

}  // namespace perfbench
