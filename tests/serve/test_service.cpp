#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "gps/bom.hpp"
#include "kits/registry.hpp"

namespace ipass::serve {
namespace {

// Responses are wire JSON; read them back through the shared parser.
JsonValue parse_response(const std::string& line) {
  return parse_json(line, "serve response");
}

std::string field_str(const JsonValue& v, const char* key) {
  for (const auto& [k, val] : v.object) {
    if (k == key) return val.string;
  }
  ADD_FAILURE() << "response lacks field " << key;
  return {};
}

const JsonValue* field(const JsonValue& v, const char* key) {
  for (const auto& [k, val] : v.object) {
    if (k == key) return &val;
  }
  return nullptr;
}

std::string error_code_of(const std::string& line) {
  const JsonValue v = parse_response(line);
  EXPECT_EQ(field_str(v, "status"), "error");
  return field_str(v, "code");
}

TEST(AssessmentService, OkResponseMatchesDirectPipelineBitForBit) {
  AssessmentService service;
  const JsonValue v = parse_response(
      service.handle(R"({"id": "q", "kit_name": "mcm-d-si-ip"})"));
  EXPECT_EQ(field_str(v, "status"), "ok");
  EXPECT_EQ(field_str(v, "kit"), "mcm-d-si-ip");
  EXPECT_EQ(field(v, "degraded")->boolean, false);

  // The same study, assembled the way the service documents it (the
  // sweep_kits shape): reference build-ups then the kit's variants.
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  const kits::ProcessKit& reference = registry.at(kits::kPcbFr4Kit);
  const kits::ProcessKit& kit = registry.at(kits::kMcmDSiIpKit);
  std::vector<core::BuildUp> buildups = kits::make_buildups(reference);
  for (core::BuildUp& b :
       kits::make_buildups(kit, static_cast<int>(buildups.size()) + 1)) {
    buildups.push_back(std::move(b));
  }
  const core::AssessmentPipeline pipeline(gps::gps_front_end_bom(), buildups,
                                          kits::apply_passives(kit));
  const core::BatchAssessmentResult batch =
      pipeline.evaluate({core::AssessmentInputs{}});

  const JsonValue* rows = field(v, "buildups");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), buildups.size());
  EXPECT_EQ(static_cast<std::size_t>(field(v, "winner")->number), batch.winners[0]);
  for (std::size_t b = 0; b < buildups.size(); ++b) {
    const JsonValue& row = rows->array[b];
    EXPECT_EQ(field_str(row, "name"), buildups[b].name);
    // %.17g round-trips binary64 exactly — equality is exact, not approximate.
    EXPECT_EQ(field(row, "fom")->number, batch.at(0, b).fom);
    EXPECT_EQ(field(row, "final_cost_per_shipped")->number,
              batch.at(0, b).final_cost_per_shipped);
    EXPECT_EQ(field(row, "cost_rel")->number, batch.at(0, b).cost_rel);
  }
}

TEST(AssessmentService, ErrorTaxonomyOnTheWire) {
  AssessmentService service;
  EXPECT_EQ(error_code_of(service.handle("garbage")), "parse");
  EXPECT_EQ(error_code_of(service.handle(R"({"id": "x"})")), "validation");
  EXPECT_EQ(error_code_of(service.handle(R"({"id": "x", "kit_name": "nope"})")),
            "validation");
  EXPECT_EQ(error_code_of(service.handle(
                R"({"id": "x", "kit_name": "ltcc-ceramic", "bom": "other"})")),
            "validation");
  // A reference with integrated passives cannot anchor the comparison.
  EXPECT_EQ(error_code_of(service.handle(
                R"({"id": "x", "kit_name": "ltcc-ceramic", "reference": "mcm-d-si-ip"})")),
            "validation");
  const ServiceMetrics& stats = service.metrics();
  EXPECT_EQ(stats.completed.value(), 5U);
  EXPECT_EQ(stats.errors.value(), 5U);
  EXPECT_EQ(stats.ok.value(), 0U);
}

TEST(AssessmentService, InjectedDeadlineProducesDeadlineError) {
  ServiceOptions options;
  options.faults.deadline_rate = 1.0;
  options.faults.seed = 3;
  AssessmentService service(options);
  const std::string line =
      service.handle(R"({"id": "d", "kit_name": "ltcc-ceramic", "deadline_ms": 60000})");
  EXPECT_EQ(error_code_of(line), "deadline");
  EXPECT_NE(line.find("60000 ms"), std::string::npos);
}

TEST(AssessmentService, StallPastRealDeadlineProducesDeadlineError) {
  ServiceOptions options;
  options.faults.stall_rate = 1.0;
  options.faults.stall_ms = 80;
  AssessmentService service(options);
  EXPECT_EQ(error_code_of(service.handle(
                R"({"id": "d", "kit_name": "ltcc-ceramic", "deadline_ms": 20})")),
            "deadline");
}

TEST(AssessmentService, OverloadRefusalIsStructuredAndCounted) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_limit = 1;
  options.faults.stall_rate = 1.0;  // keep the first request busy
  options.faults.stall_ms = 300;
  AssessmentService service(options);
  std::future<std::string> first =
      service.submit(R"({"id": "slow", "kit_name": "ltcc-ceramic"})");
  const std::string refused =
      service.handle(R"({"id": "second", "kit_name": "ltcc-ceramic"})");
  EXPECT_EQ(error_code_of(refused), "overload");
  const JsonValue first_v = parse_response(first.get());
  EXPECT_EQ(field_str(first_v, "status"), "ok");
  const ServiceMetrics& stats = service.metrics();
  EXPECT_EQ(stats.overloaded.value(), 1U);
  EXPECT_EQ(stats.admitted.value(), 1U);
}

TEST(AssessmentService, DegradationShedsOptionalStagesAndFlags) {
  ServiceOptions options;
  options.workers = 1;
  options.degrade_depth = 1;
  options.faults.stall_rate = 1.0;  // first request occupies the worker
  options.faults.stall_ms = 200;
  AssessmentService service(options);
  std::future<std::string> first =
      service.submit(R"({"id": "slow", "kit_name": "ltcc-ceramic"})");
  // Admitted while the first is in flight -> optional stages shed.
  std::future<std::string> second = service.submit(
      R"({"id": "shed", "kit_name": "ltcc-ceramic", "pareto": true, "sensitivity": true})");
  const JsonValue degraded = parse_response(second.get());
  EXPECT_EQ(field_str(degraded, "status"), "ok");
  EXPECT_TRUE(field(degraded, "degraded")->boolean);
  EXPECT_EQ(field(degraded, "sensitivity"), nullptr);
  const JsonValue* rows = field(degraded, "buildups");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(field(rows->array[0], "frontier"), nullptr);
  first.get();
  EXPECT_GE(service.metrics().degraded.value(), 1U);

  // The same request through an idle service keeps its optional stages.
  AssessmentService calm;
  const JsonValue full = parse_response(calm.handle(
      R"({"id": "full", "kit_name": "ltcc-ceramic", "pareto": true, "sensitivity": true})"));
  EXPECT_FALSE(field(full, "degraded")->boolean);
  EXPECT_NE(field(full, "sensitivity"), nullptr);
  EXPECT_NE(field(field(full, "buildups")->array[0], "frontier"), nullptr);
}

TEST(AssessmentService, WorkersBoundHowManyRequestsEvaluateAtOnce) {
  ServiceOptions options;
  options.workers = 2;
  options.faults.stall_rate = 1.0;  // every request holds its slot 100 ms
  options.faults.stall_ms = 100;
  AssessmentService service(options);
  const auto start = std::chrono::steady_clock::now();
  std::atomic<int> finished{0};
  std::vector<std::string> responses(4);
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    callers.emplace_back([&, i] {
      responses[i] = service.handle(R"({"id": "c", "kit_name": "ltcc-ceramic"})");
      ++finished;
    });
  }
  double max_running = 0.0;
  while (finished.load() < 4) {
    const JsonValue health = parse_response(service.handle(R"({"kind": "health"})"));
    max_running = std::max(max_running, field(health, "running")->number);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : callers) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LE(max_running, 2.0);
  EXPECT_GE(max_running, 1.0);
  // Four 100 ms stalls through two slots take at least two rounds.
  EXPECT_GE(elapsed, std::chrono::milliseconds(200));
  for (const std::string& r : responses) {
    EXPECT_EQ(field_str(parse_response(r), "status"), "ok");
  }
  EXPECT_EQ(service.metrics().completed.value(), 4U);
}

TEST(AssessmentService, FaultStormNeverCrashesLeaksOrDeadlocks) {
  const std::vector<std::string> requests = {
      R"({"id": "a", "kit_name": "mcm-d-si-ip", "pareto": true})",
      R"({"id": "b", "kit_name": "ltcc-ceramic", "sensitivity": true})",
      R"({"id": "c", "kit_name": "organic-ep", "volume": 50000})",
      R"({"id": "d", "kit_name": "nope"})",
      "not json at all",
      R"({"id": "f", "kit_name": "si-interposer-2p5d", "deadline_ms": 60000})",
  };
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ServiceOptions options;
    options.workers = 4;
    options.faults.seed = seed;
    options.faults.parse_rate = 0.3;
    options.faults.worker_throw_rate = 0.3;
    options.faults.stall_rate = 0.3;
    options.faults.stall_ms = 2;
    options.faults.deadline_rate = 0.2;
    options.faults.evict_rate = 0.5;
    AssessmentService service(options);
    std::vector<std::future<std::string>> futures;
    for (int round = 0; round < 4; ++round) {
      for (const std::string& r : requests) futures.push_back(service.submit(r));
    }
    for (std::future<std::string>& f : futures) {
      // Every admitted request gets exactly one well-formed response.
      const JsonValue v = parse_response(f.get());
      const std::string status = field_str(v, "status");
      EXPECT_TRUE(status == "ok" || status == "error") << status;
    }
    const ServiceMetrics& stats = service.metrics();
    EXPECT_EQ(stats.admitted.value() + stats.overloaded.value(), futures.size());
    EXPECT_EQ(stats.completed.value(), stats.admitted.value());  // no leaked slots
  }
}

TEST(AssessmentService, DestructorDrainsAdmittedRequests) {
  std::vector<std::future<std::string>> futures;
  {
    ServiceOptions options;
    options.workers = 2;
    AssessmentService service(options);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(
          service.submit(R"({"id": "drain", "kit_name": "ltcc-ceramic"})"));
    }
  }  // destructor joins after draining
  for (std::future<std::string>& f : futures) {
    EXPECT_EQ(field_str(parse_response(f.get()), "status"), "ok");
  }
}

TEST(AssessmentService, HealthProbeAnswersWithoutAdmission) {
  AssessmentService service;
  const JsonValue v = parse_response(service.handle(R"({"kind": "health"})"));
  EXPECT_EQ(field_str(v, "status"), "ok");
  EXPECT_EQ(field_str(v, "version"), kWireVersion);
  ASSERT_NE(field(v, "queue_depth"), nullptr);
  ASSERT_NE(field(v, "journal"), nullptr);
  EXPECT_EQ(field(v, "journal")->boolean, false);
  EXPECT_EQ(field(v, "journal_lag")->number, 0.0);
  EXPECT_EQ(field(v, "draining")->boolean, false);
  const ServiceMetrics& stats = service.metrics();
  EXPECT_EQ(stats.health.value(), 1U);
  // A probe never consumes a sequence number.
  EXPECT_EQ(stats.admitted.value(), 0U);

  // An inline kit containing the "kind" substring in its document is NOT a
  // health probe (the full parse decides, not the substring).
  const std::string assess = service.handle(
      R"({"id": "k", "kit_name": "ltcc-ceramic", "weights": {"cost": 1}})");
  EXPECT_EQ(field_str(parse_response(assess), "status"), "ok");
  EXPECT_EQ(service.metrics().admitted.value(), 1U);
}

TEST(AssessmentService, DrainRefusesNewWorkAndFinishesAdmitted) {
  ServiceOptions options;
  options.workers = 2;
  AssessmentService service(options);
  std::vector<std::future<std::string>> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(
        service.submit(R"({"id": "pre", "kit_name": "ltcc-ceramic"})"));
  }
  service.begin_drain();
  // New work is refused with a structured overload error naming the drain...
  const std::string refused =
      service.handle(R"({"id": "post", "kit_name": "ltcc-ceramic"})");
  EXPECT_EQ(error_code_of(refused), "overload");
  EXPECT_NE(refused.find("draining"), std::string::npos) << refused;
  // ...health probes still answer (monitoring keeps working mid-drain)...
  EXPECT_NE(service.handle(R"({"kind": "health"})").find("\"draining\": true"),
            std::string::npos);
  // ...and everything admitted before the drain completes normally.
  EXPECT_TRUE(service.await_drained(std::chrono::milliseconds(10000)));
  for (std::future<std::string>& f : admitted) {
    EXPECT_EQ(field_str(parse_response(f.get()), "status"), "ok");
  }
  const ServiceMetrics& stats = service.metrics();
  EXPECT_EQ(stats.admitted.value(), 4U);
  EXPECT_EQ(stats.completed.value(), 4U);
  EXPECT_EQ(stats.overloaded.value(), 1U);
}

TEST(AssessmentService, CacheIsSharedAcrossRequests) {
  AssessmentService service;
  service.handle(R"({"id": "1", "kit_name": "ltcc-ceramic"})");
  service.handle(R"({"id": "2", "kit_name": "ltcc-ceramic", "volume": 9000})");
  service.handle(R"({"id": "3", "kit_name": "ltcc-ceramic", "weights": {"cost": 2}})");
  const ServiceMetrics& stats = service.metrics();
  EXPECT_EQ(stats.cache.misses.value(), 1U);
  EXPECT_EQ(stats.cache.hits.value(), 2U);
}

}  // namespace
}  // namespace ipass::serve
