#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "gps/bom.hpp"
#include "kits/registry.hpp"

namespace ipass::serve {
namespace {

// A real (cheap) compile: the reference kit cost-only, so cache behavior is
// tested against the artifact the service actually shares.
std::shared_ptr<const core::CompiledStudy> compile_reference() {
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  const kits::ProcessKit& kit = registry.at(kits::kPcbFr4Kit);
  return core::compile_study(gps::gps_front_end_bom(), kits::make_buildups(kit),
                             kits::apply_passives(kit), core::PipelineScope::CostOnly);
}

TEST(StudyCache, HitsMissesAndLruEviction) {
  metrics::MetricsRegistry registry;
  CompiledStudyCache cache(2, registry);
  std::atomic<int> compiles{0};
  const auto compile = [&] {
    ++compiles;
    return compile_reference();
  };

  EXPECT_NE(cache.get_or_compile("a", compile), nullptr);
  EXPECT_EQ(cache.get_or_compile("a", compile), cache.get_or_compile("a", compile));
  EXPECT_EQ(compiles.load(), 1);

  cache.get_or_compile("b", compile);
  EXPECT_EQ(cache.size(), 2U);
  // "a" was used more recently than "b"? No: "a" hits above, then "b"
  // compiled; inserting "c" must evict the least recently used — "a" was
  // touched before "b", so "a" goes.
  cache.get_or_compile("c", compile);
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(compiles.load(), 3);
  cache.get_or_compile("b", compile);  // still cached
  EXPECT_EQ(compiles.load(), 3);
  cache.get_or_compile("a", compile);  // recompiled after eviction
  EXPECT_EQ(compiles.load(), 4);

  const CacheMetrics& stats = cache.metrics();
  EXPECT_EQ(stats.misses.value(), 4U);
  EXPECT_GE(stats.hits.value(), 3U);
  EXPECT_GE(stats.evictions.value(), 2U);
  EXPECT_EQ(stats.failures.value(), 0U);
}

TEST(StudyCache, ExplicitAndMidFlightEvictionIsSafeForHolders) {
  metrics::MetricsRegistry registry;
  CompiledStudyCache cache(4, registry);
  const auto compile = [] { return compile_reference(); };
  const std::shared_ptr<const core::CompiledStudy> held =
      cache.get_or_compile("k", compile);
  EXPECT_TRUE(cache.evict("k"));
  EXPECT_FALSE(cache.evict("k"));
  EXPECT_EQ(cache.size(), 0U);
  // The holder's artifact survives the eviction; evaluations keep working.
  const core::AssessmentPipeline pipeline(held);
  const core::BatchAssessmentResult r = pipeline.evaluate({core::AssessmentInputs{}});
  EXPECT_EQ(r.points, 1U);
  EXPECT_GT(r.at(0, 0).final_cost_per_shipped, 0.0);
}

TEST(StudyCache, SingleFlightCompilesOnceUnderContention) {
  metrics::MetricsRegistry registry;
  CompiledStudyCache cache(4, registry);
  std::atomic<int> compiles{0};
  const auto slow_compile = [&] {
    ++compiles;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return compile_reference();
  };

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const core::CompiledStudy>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = cache.get_or_compile("shared", slow_compile); });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(compiles.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
  const CacheMetrics& stats = cache.metrics();
  EXPECT_EQ(stats.misses.value(), 1U);
  // A thread arriving mid-compile waits; one arriving after it finished
  // hits — either way nobody compiled twice.
  EXPECT_EQ(stats.waits.value() + stats.hits.value(),
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(StudyCache, FailedCompileReachesEveryWaiterAndIsNotCached) {
  metrics::MetricsRegistry registry;
  CompiledStudyCache cache(4, registry);
  std::atomic<int> compiles{0};
  const auto failing = [&]() -> std::shared_ptr<const core::CompiledStudy> {
    ++compiles;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("compile exploded");
  };

  constexpr int kThreads = 4;
  std::atomic<int> throws{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        cache.get_or_compile("bad", failing);
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "compile exploded");
        ++throws;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(throws.load(), kThreads);
  EXPECT_EQ(compiles.load(), 1);
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.metrics().failures.value(), 1U);

  // The failure was not cached: the next request retries and succeeds.
  EXPECT_NE(cache.get_or_compile("bad", [] { return compile_reference(); }), nullptr);
  EXPECT_EQ(cache.size(), 1U);
}

TEST(StudyCache, CapacityMustBePositive) {
  metrics::MetricsRegistry registry;
  EXPECT_THROW(CompiledStudyCache(0, registry), PreconditionError);
}

// ---------------------------------------------------------------------------
// The KeyedCache template behind both service tiers: single-flight, failure
// propagation and the capacity bound hold for each instantiation.

template <class T>
std::shared_ptr<const T> make_value();

template <>
std::shared_ptr<const core::CompiledStudy> make_value<core::CompiledStudy>() {
  return compile_reference();
}

template <>
std::shared_ptr<const core::PerformanceResult> make_value<core::PerformanceResult>() {
  auto row = std::make_shared<core::PerformanceResult>();
  row->score = 0.5;
  return row;
}

template <class T>
class KeyedCacheTier : public ::testing::Test {};

using Tiers = ::testing::Types<core::CompiledStudy, core::PerformanceResult>;
TYPED_TEST_SUITE(KeyedCacheTier, Tiers);

TYPED_TEST(KeyedCacheTier, SingleFlightComputesOnceUnderContention) {
  metrics::MetricsRegistry registry;
  KeyedCache<TypeParam> cache(4, registry, "tier");
  std::atomic<int> computes{0};
  const auto slow = [&] {
    ++computes;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return make_value<TypeParam>();
  };
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const TypeParam>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = cache.get_or_compile("shared", slow); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
  EXPECT_EQ(cache.metrics().misses.value(), 1U);
  EXPECT_EQ(cache.metrics().waits.value() + cache.metrics().hits.value(),
            static_cast<std::uint64_t>(kThreads - 1));
  // The prefix names the tier's counters in its registry.
  EXPECT_EQ(registry.counter("tier_misses_total").value(), 1U);
}

TYPED_TEST(KeyedCacheTier, FailureReachesEveryWaiterAndIsNotCached) {
  metrics::MetricsRegistry registry;
  KeyedCache<TypeParam> cache(4, registry, "tier");
  std::atomic<int> computes{0};
  const auto failing = [&]() -> std::shared_ptr<const TypeParam> {
    ++computes;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("sweep exploded");
  };
  constexpr int kThreads = 4;
  std::atomic<int> throws{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        cache.get_or_compile("bad", failing);
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "sweep exploded");
        ++throws;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(throws.load(), kThreads);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.metrics().failures.value(), 1U);
  EXPECT_NE(cache.get_or_compile("bad", [] { return make_value<TypeParam>(); }), nullptr);
  EXPECT_EQ(cache.size(), 1U);
}

TYPED_TEST(KeyedCacheTier, StaysWithinCapacity) {
  metrics::MetricsRegistry registry;
  KeyedCache<TypeParam> cache(4, registry, "tier");
  const std::shared_ptr<const TypeParam> value = make_value<TypeParam>();
  for (int i = 0; i < 100; ++i) {
    cache.get_or_compile("k" + std::to_string(i), [&] { return value; });
    EXPECT_LE(cache.size(), 4U);
  }
  EXPECT_EQ(cache.size(), 4U);
  EXPECT_EQ(cache.metrics().evictions.value(), 96U);
}

}  // namespace
}  // namespace ipass::serve
