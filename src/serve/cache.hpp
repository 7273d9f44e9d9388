// Keyed, size-bounded LRU cache of compiled studies with single-flight
// compilation.
//
// Entries are shared_ptr<const CompiledStudy>: a request that resolved its
// study keeps evaluating safely even if the entry is evicted mid-flight
// (the artifact dies with its last reference, never under a reader).  When
// several requests miss on the same key concurrently, exactly one compiles
// while the rest wait for that result (single-flight) — a cold burst of
// identical studies costs one MNA/area compilation, not N.  A failed
// compilation is NOT cached: the exception propagates to the compiling
// request and every waiter, and the next request retries.
//
// The cache counts hits, misses, waits, evictions and failures only in the
// metrics registry it is given; those counters are what the service's stats
// probe and the registry's dump both read.
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

// The cache's counters, resolved once from a registry (serve_cache_*_total).
struct CacheMetrics {
  explicit CacheMetrics(metrics::MetricsRegistry& registry);
  metrics::Counter& hits;       // served from a ready entry
  metrics::Counter& misses;     // this caller ran the compile
  metrics::Counter& waits;      // joined another caller's compile
  metrics::Counter& evictions;  // LRU + explicit evict() removals
  metrics::Counter& failures;   // compiles that threw
};

class CompiledStudyCache {
 public:
  using Compile = std::function<std::shared_ptr<const core::CompiledStudy>()>;

  // At most `capacity` ready entries are retained (least recently used
  // evicted first).  capacity must be >= 1.  Counts into `registry`, which
  // must outlive the cache.
  CompiledStudyCache(std::size_t capacity, metrics::MetricsRegistry& registry);

  CompiledStudyCache(const CompiledStudyCache&) = delete;
  CompiledStudyCache& operator=(const CompiledStudyCache&) = delete;

  // Return the cached study for `key`, or run `compile` (outside the cache
  // lock) and cache its result.  Rethrows the compile exception to the
  // caller and to every single-flight waiter without caching it.  When
  // `outcome` is non-null it receives how this call was served (Hit, Miss,
  // or single-flight Wait) — the per-request trace's classification.
  std::shared_ptr<const core::CompiledStudy> get_or_compile(
      const std::string& key, const Compile& compile,
      CacheOutcome* outcome = nullptr);

  // Drop the ready entry for `key` (in-flight compilations are unaffected
  // and will insert when they finish).  Returns whether an entry existed.
  bool evict(const std::string& key);

  std::size_t size() const;
  const CacheMetrics& metrics() const { return metrics_; }

 private:
  struct Entry {
    std::shared_ptr<const core::CompiledStudy> study;
    std::uint64_t last_used = 0;
  };
  // One per in-flight compilation; waiters block on its own cv so a slow
  // compile never holds the cache lock.
  struct Inflight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const core::CompiledStudy> study;
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

}  // namespace ipass::serve
