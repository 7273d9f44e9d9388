// Metrics registry: atomic counters, gauges with high-water tracking, and
// fixed-bucket log2 latency histograms, snapshot-able to JSON (jsonfmt) and
// to the Prometheus text exposition format.
//
// Ownership: the serving stack (service, study cache, journal, socket
// server) records only into the registry it is given at construction — one
// counter per concept, read by both the stats probe and the dump.  A service
// given none owns a fresh registry, so in-process services never mix their
// numbers; the ipass_serve daemon passes global_metrics().  The engine
// profiling histograms stay process-wide in global_metrics().
//
// Hot-path contract: recording is allocation-free and lock-free — a counter
// add is one relaxed atomic fetch_add, a histogram record is three.  The
// registry mutex is only taken when a metric is *named* (registration) or
// *snapshot*, both of which happen off the request path: instrumented
// components resolve their `Counter&`/`Histogram&` once (in their
// constructor) and hold the reference, which stays valid for the life of
// the registry (entries are never removed).
//
// Observability vs determinism: metrics are strictly write-only from the
// serving stack's point of view — wall-clock time flows INTO histograms and
// never back into any response, which is what keeps request replay
// byte-identical with metrics enabled (pinned by the serve metrics suite).
//
// Profiling hooks (core::compile_study, core::assess_performance,
// AssessmentPipeline::evaluate) are
// opt-in behind `set_profiling_enabled`: when off, the only cost at a hook
// site is one relaxed atomic bool load.
#pragma once

#include <atomic>
#include <cstdint>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ipass::metrics {

// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Instantaneous level with a monotone high-water mark (e.g. queue depth).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    raise_high_water(v);
  }
  void add(std::int64_t delta) noexcept {
    raise_high_water(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void raise_high_water(std::int64_t v) noexcept {
    std::int64_t seen = high_water_.load(std::memory_order_relaxed);
    while (v > seen &&
           !high_water_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_water_{0};
};

// Fixed-bucket log2 latency histogram over nanoseconds with exact count and
// sum.  Bucket i counts durations whose bit width is i — i.e. bucket 0 holds
// d == 0, bucket i (1 <= i <= 30) holds d in [2^(i-1), 2^i), and the last
// bucket is the overflow for everything >= 2^30 ns (~1.07 s).  The range
// spans 1 ns to >1 s in 31 power-of-two steps, which is plenty of resolution
// for stage latencies while keeping the record path to a handful of relaxed
// atomic adds and the footprint fixed (no dynamic rebucketing ever).
class Histogram {
 public:
  // 0-bucket + 30 power-of-two buckets + overflow.
  static constexpr std::size_t kBuckets = 32;
  static constexpr std::size_t kOverflowBucket = kBuckets - 1;

  static std::size_t bucket_index(std::uint64_t nanos) noexcept {
    std::size_t width = 0;
    for (std::uint64_t v = nanos; v != 0; v >>= 1) ++width;  // bit width
    return width < kOverflowBucket ? width : kOverflowBucket;
  }
  // Inclusive upper bound of bucket i in nanoseconds (the overflow bucket
  // has none and reports UINT64_MAX).
  static std::uint64_t bucket_upper_ns(std::size_t bucket) noexcept {
    if (bucket >= kOverflowBucket) return ~std::uint64_t{0};
    return (std::uint64_t{1} << bucket) - 1;
  }

  void record(std::uint64_t nanos) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(nanos, std::memory_order_relaxed);
    buckets_[bucket_index(nanos)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum_ns() const noexcept {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

// Named registry.  Metric names must match the Prometheus identifier
// grammar [a-zA-Z_][a-zA-Z0-9_]* (enforced at registration); naming an
// existing metric returns the same instance, so independent subsystems can
// share a counter without coordination.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // One JSON object: {"counters": {...}, "gauges": {...}, "histograms":
  // {...}}.  Histograms serialize count, sum_ns and the non-empty buckets
  // as [upper_bound_ns, count] pairs ("le" of the overflow bucket is
  // "+Inf").  Values are read relaxed: a snapshot taken under concurrent
  // increments sees each metric at some point between snapshot start and
  // end — never torn, never decreasing across snapshots.
  std::string snapshot_json() const;

  // Prometheus text exposition (type comments, cumulative _bucket series
  // with "le" labels, _count and _sum).  Histogram sums are exported in
  // seconds per Prometheus convention.
  std::string prometheus_text() const;

 private:
  // std::map node addresses are stable across inserts, which is what lets
  // callers keep references while registration continues.
  mutable std::mutex m_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// The process-wide registry: the engine profiling hooks record into it, and
// the ipass_serve daemon hands it to its server (what `ipass_serve
// --metrics` dumps).
MetricsRegistry& global_metrics();

// ---------------------------------------------------------------- profiling
// Opt-in engine profiling (per-phase wall time of compile_study, the MNA
// sweeps and the batched evaluate).  Off by default; the hooks cost one relaxed atomic
// load when disabled.
void set_profiling_enabled(bool enabled) noexcept;

inline std::atomic<bool>& profiling_flag() noexcept {
  static std::atomic<bool> enabled{false};
  return enabled;
}
inline bool profiling_enabled() noexcept {
  return profiling_flag().load(std::memory_order_relaxed);
}

// RAII phase timer: records the scope's wall time into `histogram` on
// destruction; a null histogram makes it a no-op (the disabled path never
// reads the clock).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) noexcept
      : histogram_(histogram),
        start_(histogram != nullptr ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ipass::metrics
