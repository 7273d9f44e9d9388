#include "serve/cache.hpp"

#include "common/error.hpp"

namespace ipass::serve {

CacheMetrics::CacheMetrics(metrics::MetricsRegistry& registry)
    : hits(registry.counter("serve_cache_hits_total")),
      misses(registry.counter("serve_cache_misses_total")),
      waits(registry.counter("serve_cache_waits_total")),
      evictions(registry.counter("serve_cache_evictions_total")),
      failures(registry.counter("serve_cache_failures_total")) {}

CompiledStudyCache::CompiledStudyCache(std::size_t capacity,
                                       metrics::MetricsRegistry& registry)
    : capacity_(capacity), metrics_(registry) {
  require(capacity >= 1, "CompiledStudyCache: capacity must be at least 1");
}

std::shared_ptr<const core::CompiledStudy> CompiledStudyCache::get_or_compile(
    const std::string& key, const Compile& compile, CacheOutcome* outcome) {
  std::shared_ptr<Inflight> flight;
  {
    std::unique_lock<std::mutex> lk(m_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      metrics_.hits.add();
      if (outcome != nullptr) *outcome = CacheOutcome::Hit;
      it->second.last_used = ++tick_;
      return it->second.study;
    }
    const auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      // Single-flight: someone else is compiling this key — wait for their
      // result instead of compiling it again.
      metrics_.waits.add();
      if (outcome != nullptr) *outcome = CacheOutcome::Wait;
      flight = fit->second;
      lk.unlock();
      std::unique_lock<std::mutex> flk(flight->m);
      flight->cv.wait(flk, [&] { return flight->done; });
      if (flight->error) std::rethrow_exception(flight->error);
      return flight->study;
    }
    metrics_.misses.add();
    if (outcome != nullptr) *outcome = CacheOutcome::Miss;
    flight = std::make_shared<Inflight>();
    inflight_[key] = flight;
  }

  // Compile outside the cache lock: hits and unrelated compiles proceed.
  std::shared_ptr<const core::CompiledStudy> study;
  std::exception_ptr error;
  try {
    study = compile();
    ensure(study != nullptr, "CompiledStudyCache: compile returned null");
  } catch (...) {
    error = std::current_exception();
  }

  {
    std::lock_guard<std::mutex> lk(m_);
    inflight_.erase(key);
    if (!error) {
      entries_[key] = Entry{study, ++tick_};
      trim_locked();
    } else {
      metrics_.failures.add();
    }
  }
  {
    std::lock_guard<std::mutex> flk(flight->m);
    flight->study = study;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();

  if (error) std::rethrow_exception(error);
  return study;
}

bool CompiledStudyCache::evict(const std::string& key) {
  std::lock_guard<std::mutex> lk(m_);
  const bool existed = entries_.erase(key) > 0;
  if (existed) {
    metrics_.evictions.add();
  }
  return existed;
}

std::size_t CompiledStudyCache::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return entries_.size();
}

void CompiledStudyCache::trim_locked() {
  while (entries_.size() > capacity_) {
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    entries_.erase(lru);
    metrics_.evictions.add();
  }
}

}  // namespace ipass::serve
