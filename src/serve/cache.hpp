// Keyed, size-bounded LRU cache with single-flight compilation — the one
// cache implementation of the service, instantiated for its two tiers:
//
//   CompiledStudyCache (KeyedCache<core::CompiledStudy>)  — whole compiled
//     studies, keyed by study_cache_key: the whole request minus its
//     per-request evaluation state, an inline kit as its field bytes
//     (kits::append_kit_key).  Counters serve_cache_*_total, also read by
//     the stats and health probes.
//   PerformanceCache (KeyedCache<core::PerformanceResult>) — one build-up's
//     MNA performance rows, keyed by core::performance_key: exactly what
//     assess_performance reads.  A study miss whose electrical kit is
//     already known compiles area and cost only.  Counters
//     serve_perf_cache_*_total, in the metrics dump only.
//
// The service bounds both tiers by its one cache_capacity (--cache N).
// Area is not cached here: it depends on every kit's filter overhead, so
// rows would differ per inline variant.  What area reads that no kit
// changes, each filter's lossless ladder, is synthesized once per process
// (core::kLadderMemoCapacity in core/realization.hpp).
//
// Entries are shared_ptr<const T>: a request that resolved its entry keeps
// using it safely even if the entry is evicted mid-flight (the artifact
// dies with its last reference, never under a reader).  When several
// requests miss on the same key concurrently, exactly one compiles while
// the rest wait for that result (single-flight) — a cold burst of
// identical studies costs one MNA/area compilation, not N.  A failed
// compilation is NOT cached: the exception propagates to the compiling
// request and every waiter, and the next request retries.
//
// A cache counts hits, misses, waits, evictions and failures only in the
// metrics registry it is given.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/metrics.hpp"
#include "core/methodology.hpp"
#include "serve/trace.hpp"

namespace ipass::serve {

// A cache's counters, resolved once from a registry as
// <prefix>_{hits,misses,waits,evictions,failures}_total.
struct CacheMetrics {
  CacheMetrics(metrics::MetricsRegistry& registry, const std::string& prefix);
  metrics::Counter& hits;       // served from a ready entry
  metrics::Counter& misses;     // this caller ran the compile
  metrics::Counter& waits;      // joined another caller's compile
  metrics::Counter& evictions;  // LRU + explicit evict() removals
  metrics::Counter& failures;   // compiles that threw
};

template <class T>
class KeyedCache {
 public:
  using Value = std::shared_ptr<const T>;
  using Compile = std::function<Value()>;

  // At most `capacity` ready entries are retained (least recently used
  // evicted first).  capacity must be >= 1.  Counts into `registry`, which
  // must outlive the cache, under `metrics_prefix`.
  KeyedCache(std::size_t capacity, metrics::MetricsRegistry& registry,
             const std::string& metrics_prefix = "serve_cache");

  KeyedCache(const KeyedCache&) = delete;
  KeyedCache& operator=(const KeyedCache&) = delete;

  // Return the cached value for `key`, or run `compile` (outside the cache
  // lock) and cache its result.  Rethrows the compile exception to the
  // caller and to every single-flight waiter without caching it.  When
  // `outcome` is non-null it receives how this call was served (Hit, Miss,
  // or single-flight Wait) — the per-request trace's classification.
  Value get_or_compile(const std::string& key, const Compile& compile,
                       CacheOutcome* outcome = nullptr);

  // Drop the ready entry for `key` (in-flight compilations are unaffected
  // and will insert when they finish).  Returns whether an entry existed.
  bool evict(const std::string& key);

  std::size_t size() const;
  const CacheMetrics& metrics() const { return metrics_; }

 private:
  struct Entry {
    Value value;
    std::uint64_t last_used = 0;
  };
  // One per in-flight compilation; waiters block on its own cv so a slow
  // compile never holds the cache lock.
  struct Inflight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Value value;
    std::exception_ptr error;
  };

  void trim_locked();

  const std::size_t capacity_;
  const CacheMetrics metrics_;
  mutable std::mutex m_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  std::uint64_t tick_ = 0;
};

// The two tiers (defined in cache.cpp).
extern template class KeyedCache<core::CompiledStudy>;
extern template class KeyedCache<core::PerformanceResult>;
using CompiledStudyCache = KeyedCache<core::CompiledStudy>;
using PerformanceCache = KeyedCache<core::PerformanceResult>;

}  // namespace ipass::serve
