// The performance tier under the study cache: a study miss takes each
// build-up's MNA performance rows from a second LRU keyed by
// core::performance_key.  Differentially, a service whose tiers hold one
// entry each must answer every request with the bytes of a fresh service
// (a fresh compile), over the committed request log and over a churn-like
// vocabulary of built-in and inline cost-variant kits; and every served
// performance score must equal a compile that bypasses the tier.  The tier
// is bounded by the same cache_capacity as the study tier.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "gps/bom.hpp"
#include "kits/kit_json.hpp"
#include "kits/registry.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"

namespace ipass::serve {
namespace {

// The response each request gets from a service that never saw another
// request: nothing cached, every row swept for this request alone.
std::vector<std::string> fresh_service_responses(const std::vector<std::string>& requests) {
  std::vector<std::string> out;
  out.reserve(requests.size());
  for (const std::string& request : requests) {
    AssessmentService fresh;
    out.push_back(fresh.handle(request));
  }
  return out;
}

std::string inline_request(const std::string& id, const kits::ProcessKit& kit,
                           const char* scope, const std::string& extra = "") {
  return "{\"id\": \"" + id + "\", \"kit\": " + kits::kit_json(kit) +
         ", \"scope\": \"" + scope + "\"" + extra + "}";
}

// A request with what a tier-free compile needs to check its answer.
struct Probe {
  std::string text;
  kits::ProcessKit kit;
  bool inline_kit = false;
  core::PipelineScope scope = core::PipelineScope::Full;
};

// Each build-up's performance score from compile_study with no rows given:
// the study the service answers from, compiled without any cache.
std::vector<double> tier_free_scores(const Probe& probe) {
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  const kits::ProcessKit& reference = registry.at(kits::kPcbFr4Kit);
  std::vector<core::BuildUp> buildups = kits::make_buildups(reference);
  if (probe.inline_kit || probe.kit.name != reference.name) {
    for (core::BuildUp& b :
         kits::make_buildups(probe.kit, static_cast<int>(buildups.size()) + 1)) {
      buildups.push_back(std::move(b));
    }
  }
  const std::shared_ptr<const core::CompiledStudy> study = core::compile_study(
      gps::gps_front_end_bom(), std::move(buildups), kits::apply_passives(probe.kit),
      probe.scope);
  std::vector<double> scores;
  for (const core::PerformanceResult& row : study->performance) scores.push_back(row.score);
  return scores;
}

void expect_tier_free_scores(const Probe& probe, const std::string& response) {
  const JsonValue root = parse_json(response, "serve response");
  const JsonValue* rows = nullptr;
  for (const auto& [key, value] : root.object) {
    if (key == "buildups") rows = &value;
  }
  ASSERT_NE(rows, nullptr) << response;
  const std::vector<double> want = tier_free_scores(probe);
  ASSERT_EQ(rows->array.size(), want.size());
  for (std::size_t b = 0; b < want.size(); ++b) {
    for (const auto& [key, value] : rows->array[b].object) {
      // %.17g round-trips binary64: equality is exact.
      if (key == "performance") {
        EXPECT_EQ(value.number, want[b]) << probe.kit.name << " row " << b;
      }
    }
  }
}

// Every built-in kit in both scopes, plus inline variants of each kit that
// perturb only cost inputs (the five fields the serve-churn benchmark's
// variants touch), some with volume, weights and the optional stages.
std::vector<Probe> churn_vocabulary() {
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  std::vector<Probe> probes;
  int id = 0;
  const auto next_id = [&] { return "v" + std::to_string(id++); };
  for (const std::string& name : registry.names()) {
    for (const auto scope : {core::PipelineScope::Full, core::PipelineScope::CostOnly}) {
      const char* scope_name = scope == core::PipelineScope::Full ? "full" : "cost-only";
      probes.push_back(Probe{"{\"id\": \"" + next_id() + "\", \"kit_name\": \"" + name +
                                 "\", \"scope\": \"" + scope_name + "\"}",
                             registry.at(name), false, scope});
    }
  }
  // Sensitivity needs full scope; the others apply to both.
  const std::vector<std::string> extras = {
      "", ", \"volume\": 250000", ", \"pareto\": true",
      ", \"sensitivity\": true, \"weights\": {\"performance\": 2, \"size\": 1, \"cost\": 1}"};
  std::size_t full_requests = 0;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& name : registry.names()) {
      kits::ProcessKit kit = registry.at(name);
      const double f = 1.0 + 0.05 * (round + 1);
      kit.name = "variant-" + std::to_string(round) + "-" + name;
      kit.version = "v" + std::to_string(round);
      kit.substrate.cost_per_cm2 *= f;
      kit.passives.integrated_filter_overhead *= 2.0 - f;
      kit.corner.cost_scale *= f;
      for (kits::KitVariant& v : kit.variants) {
        v.production.chip_assembly_cost *= 2.0 - f;
        v.production.nre_total *= f;
      }
      probes.push_back(Probe{
          inline_request(next_id(), kit, "full", extras[full_requests++ % extras.size()]),
          kit, true, core::PipelineScope::Full});
      probes.push_back(Probe{inline_request(next_id(), kit, "cost-only", extras[round]), kit,
                             true, core::PipelineScope::CostOnly});
    }
  }
  return probes;
}

std::uint64_t perf_hits(const AssessmentService& service) {
  return service.metrics().perf_cache.hits.value();
}

TEST(PerformanceTier, CapacityOneMatchesFreshCompileOnCommittedLog) {
  const std::vector<std::string> requests =
      read_request_log(std::string(IPASS_SERVE_LOG_DIR) + "/requests.log");
  ServiceOptions options;
  options.cache_capacity = 1;
  AssessmentService service(options);
  const std::vector<std::string> got = replay(service, requests, 1);
  const std::vector<std::string> want = fresh_service_responses(requests);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << "request " << i;
  EXPECT_GT(perf_hits(service), 0U);
}

TEST(PerformanceTier, CapacityOneMatchesFreshCompileOnChurnVocabulary) {
  const std::vector<Probe> probes = churn_vocabulary();
  std::vector<std::string> requests;
  for (const Probe& p : probes) requests.push_back(p.text);
  const std::vector<std::string> want = fresh_service_responses(requests);
  for (std::size_t i = 0; i < probes.size(); ++i) expect_tier_free_scores(probes[i], want[i]);
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{8}}) {
    ServiceOptions options;
    options.cache_capacity = capacity;
    AssessmentService service(options);
    // Twice through: the second pass meets warm rows for every kit.
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<std::string> got = replay(service, requests, 1);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NE(got[i].find("\"status\": \"ok\""), std::string::npos) << got[i];
        EXPECT_EQ(got[i], want[i]) << "capacity " << capacity << " pass " << pass
                                   << " request " << i;
      }
    }
    EXPECT_GT(perf_hits(service), 0U) << "capacity " << capacity;
  }
}

TEST(PerformanceTier, CountersReachTheDumpNotTheStatsProbe) {
  AssessmentService service;
  service.handle(R"({"id": "a", "kit_name": "mcm-d-si-ip"})");
  service.handle(R"({"id": "b", "kit_name": "mcm-d-si"})");
  const std::string dump = service.metrics_registry().snapshot_json();
  for (const char* name :
       {"serve_perf_cache_hits_total", "serve_perf_cache_misses_total",
        "serve_perf_cache_waits_total", "serve_perf_cache_evictions_total",
        "serve_perf_cache_failures_total"}) {
    EXPECT_NE(dump.find(name), std::string::npos) << name;
  }
  // The reference pcb-fr4 row and mcm-d-si-ip's two integrated rows are
  // swept once; mcm-d-si's all-SMD row shares the reference's key, so the
  // second study reads both of its rows from the tier.
  EXPECT_EQ(service.metrics().perf_cache.misses.value(), 3U);
  EXPECT_EQ(service.metrics().perf_cache.hits.value(), 2U);
  const std::string stats = service.handle(R"({"kind": "stats"})");
  EXPECT_EQ(stats.find("perf"), std::string::npos);
}

TEST(PerformanceTier, FloodOfDistinctSpiralsStaysWithinCapacity) {
  constexpr std::size_t kCapacity = 4;
  ServiceOptions options;
  options.cache_capacity = kCapacity;
  AssessmentService service(options);
  const kits::ProcessKit base = kits::builtin_kit_registry().at(kits::kMcmDSiIpKit);
  const CacheMetrics& tier = service.metrics().perf_cache;
  for (int i = 0; i < 100; ++i) {
    kits::ProcessKit kit = base;
    kit.name = "flood-" + std::to_string(i);
    kit.passives.spiral.q_slope = 1.0 + 0.001 * (i + 1);
    const Probe probe{inline_request("f" + std::to_string(i), kit, "full"), kit, true,
                      core::PipelineScope::Full};
    const std::string response = service.handle(probe.text);
    ASSERT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;
    expect_tier_free_scores(probe, response);
    // Resident rows: every miss inserts one, every eviction removes one.
    ASSERT_LE(tier.misses.value() - tier.evictions.value(), kCapacity) << "after kit " << i;
  }
  // Each kit's two integrated rows were new: 200 sweeps plus the reference.
  EXPECT_EQ(tier.misses.value(), 201U);
  EXPECT_EQ(tier.failures.value(), 0U);
}

}  // namespace
}  // namespace ipass::serve
