#include "serve/cache.hpp"

#include "common/error.hpp"

namespace ipass::serve {

CacheMetrics::CacheMetrics(metrics::MetricsRegistry& registry,
                           const std::string& prefix)
    : hits(registry.counter(prefix + "_hits_total")),
      misses(registry.counter(prefix + "_misses_total")),
      waits(registry.counter(prefix + "_waits_total")),
      evictions(registry.counter(prefix + "_evictions_total")),
      failures(registry.counter(prefix + "_failures_total")) {}

template <class T>
KeyedCache<T>::KeyedCache(std::size_t capacity, metrics::MetricsRegistry& registry,
                          const std::string& metrics_prefix)
    : capacity_(capacity), metrics_(registry, metrics_prefix) {
  require(capacity >= 1, "KeyedCache: capacity must be at least 1");
}

template <class T>
typename KeyedCache<T>::Value KeyedCache<T>::get_or_compile(const std::string& key,
                                                           const Compile& compile,
                                                           CacheOutcome* outcome) {
  std::shared_ptr<Inflight> flight;
  {
    std::unique_lock<std::mutex> lk(m_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      metrics_.hits.add();
      if (outcome != nullptr) *outcome = CacheOutcome::Hit;
      it->second.last_used = ++tick_;
      return it->second.value;
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
      return flight->value;
    }
    metrics_.misses.add();
    if (outcome != nullptr) *outcome = CacheOutcome::Miss;
    flight = std::make_shared<Inflight>();
    inflight_[key] = flight;
  }

  // Compile outside the cache lock: hits and unrelated compiles proceed.
  Value value;
  std::exception_ptr error;
  try {
    value = compile();
    ensure(value != nullptr, "KeyedCache: compile returned null");
  } catch (...) {
    error = std::current_exception();
  }

  {
    std::lock_guard<std::mutex> lk(m_);
    inflight_.erase(key);
    if (!error) {
      entries_[key] = Entry{value, ++tick_};
      trim_locked();
    } else {
      metrics_.failures.add();
    }
  }
  {
    std::lock_guard<std::mutex> flk(flight->m);
    flight->value = value;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();

  if (error) std::rethrow_exception(error);
  return value;
}

template <class T>
bool KeyedCache<T>::evict(const std::string& key) {
  std::lock_guard<std::mutex> lk(m_);
  const bool existed = entries_.erase(key) > 0;
  if (existed) {
    metrics_.evictions.add();
  }
  return existed;
}

template <class T>
std::size_t KeyedCache<T>::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return entries_.size();
}

template <class T>
void KeyedCache<T>::trim_locked() {
  while (entries_.size() > capacity_) {
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    entries_.erase(lru);
    metrics_.evictions.add();
  }
}

template class KeyedCache<core::CompiledStudy>;
template class KeyedCache<core::PerformanceResult>;

}  // namespace ipass::serve
