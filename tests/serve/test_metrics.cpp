// The observability layer's serve-side contract: traces and metrics are
// write-only observers — per-request stage tracing, the stats probe, the
// slow-request log and the engine profiling hooks can be switched on in any
// combination without changing a single response byte, and probes never
// consume a sequence number or a journal record.
#include "common/metrics.hpp"
#include "serve/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "kits/kit_json.hpp"
#include "kits/registry.hpp"
#include "serve/journal.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"

namespace ipass::serve {
namespace {

std::vector<std::string> committed_requests() {
  return read_request_log(std::string(IPASS_SERVE_LOG_DIR) + "/requests.log");
}

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "ipass_metrics_" + name + ".wal";
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

TEST(MetricsTraceRing, KeepsEverythingBelowCapacity) {
  TraceRing ring(4);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    RequestTrace t;
    t.seq = seq;
    ring.push(t);
  }
  const std::vector<RequestTrace> got = ring.snapshot();
  ASSERT_EQ(got.size(), 3U);
  for (std::uint64_t seq = 0; seq < 3; ++seq) EXPECT_EQ(got[seq].seq, seq);
  EXPECT_EQ(ring.pushed(), 3U);
  EXPECT_EQ(ring.capacity(), 4U);
}

TEST(MetricsTraceRing, WraparoundOverwritesOldestFirst) {
  TraceRing ring(4);
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    RequestTrace t;
    t.seq = seq;
    ring.push(t);
  }
  // 10 pushes through a 4-slot ring retain exactly the last 4, oldest-first.
  const std::vector<RequestTrace> got = ring.snapshot();
  ASSERT_EQ(got.size(), 4U);
  EXPECT_EQ(got[0].seq, 6U);
  EXPECT_EQ(got[1].seq, 7U);
  EXPECT_EQ(got[2].seq, 8U);
  EXPECT_EQ(got[3].seq, 9U);
  EXPECT_EQ(ring.pushed(), 10U);
}

TEST(MetricsTraceRing, TraceToStringNamesEveryStage) {
  RequestTrace t;
  t.seq = 12;
  t.total_ns = 153200000;
  t.parse_ns = 100000;
  t.cache = CacheOutcome::Miss;
  t.ok = true;
  const std::string line = trace_to_string(t);
  EXPECT_NE(line.find("seq=12"), std::string::npos);
  EXPECT_NE(line.find("total=153.2ms"), std::string::npos);
  EXPECT_NE(line.find("(miss)"), std::string::npos);
  EXPECT_NE(line.find("outcome=ok"), std::string::npos);

  t.ok = false;
  t.error = ErrorCode::Deadline;
  EXPECT_NE(trace_to_string(t).find("outcome=error(deadline)"),
            std::string::npos);
}

TEST(MetricsService, TracesRecordStagesAndCacheOutcomes) {
  ServiceOptions options;
  options.trace_capacity = 8;
  AssessmentService service(options);
  const std::string request = R"({"id": "t", "kit_name": "mcm-d-si-ip"})";
  service.handle(request);  // cold: compiles
  service.handle(request);  // warm: hits
  service.handle("garbage");
  const std::vector<RequestTrace> traces = service.traces().snapshot();
  ASSERT_EQ(traces.size(), 3U);
  EXPECT_EQ(traces[0].seq, 0U);
  EXPECT_EQ(traces[0].cache, CacheOutcome::Miss);
  EXPECT_TRUE(traces[0].ok);
  EXPECT_GT(traces[0].cache_ns, 0U);
  EXPECT_GT(traces[0].evaluate_ns, 0U);
  EXPECT_GT(traces[0].serialize_ns, 0U);
  EXPECT_GT(traces[0].total_ns, 0U);
  EXPECT_EQ(traces[1].seq, 1U);
  EXPECT_EQ(traces[1].cache, CacheOutcome::Hit);
  EXPECT_TRUE(traces[1].ok);
  // The parse failure never reached the cache; its outcome carries the code.
  EXPECT_EQ(traces[2].cache, CacheOutcome::None);
  EXPECT_FALSE(traces[2].ok);
  EXPECT_EQ(traces[2].error, ErrorCode::Parse);
}

// One parse per request, recorded once.  Every inline kit carries a "kind"
// key (substrate.kind), which once cost a second, unrecorded parse in the
// probe check; now N served inline-kit requests record exactly N parse
// samples, probes record none, and each trace's total covers its parse.
TEST(MetricsService, EachServedRequestRecordsExactlyOneParse) {
  AssessmentService service;
  const metrics::Histogram& parse = service.metrics().parse_ns;
  const std::string kit =
      kits::kit_json(kits::builtin_kit_registry().at(kits::kLtccKit));
  constexpr std::uint64_t kRequests = 5;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const std::string response = service.handle(
        "{\"id\": \"i" + std::to_string(i) + "\", \"kit\": " + kit + "}");
    EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos) << response;
  }
  EXPECT_EQ(parse.count(), kRequests);
  EXPECT_EQ(service.metrics().total_ns.count(), kRequests);
  EXPECT_GT(parse.sum_ns(), 0U);

  service.handle(R"({"kind": "health"})");
  service.handle(R"({"kind": "stats"})");
  EXPECT_EQ(parse.count(), kRequests);  // probes are parsed, never recorded

  // A malformed request is served an error, and its parse is recorded too.
  const std::string refused = service.handle(R"({"id": "m", "kit": {"kind": )");
  EXPECT_NE(refused.find("\"code\": \"parse\""), std::string::npos) << refused;
  EXPECT_EQ(parse.count(), kRequests + 1);
  for (const RequestTrace& t : service.traces().snapshot()) {
    EXPECT_GT(t.parse_ns, 0U) << "seq " << t.seq;
    EXPECT_GE(t.total_ns, t.parse_ns) << "seq " << t.seq;
  }
}

TEST(MetricsService, SlowRequestThresholdZeroLogsEveryRequest) {
  ServiceOptions options;
  options.slow_request_ms = 0;
  AssessmentService service(options);
  ::testing::internal::CaptureStderr();
  service.handle(R"({"id": "s", "kit_name": "ltcc-ceramic"})");
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("slow request seq=0"), std::string::npos);
  EXPECT_NE(log.find("outcome=ok"), std::string::npos);
}

TEST(MetricsService, ProbesNeverConsumeSeqOrJournalRecord) {
  const std::string path = tmp_path("probes");
  std::remove(path.c_str());
  {
    ServiceOptions options;
    options.journal_path = path;
    AssessmentService service(options);
    service.handle(R"({"kind": "health"})");
    service.handle(R"({"kind": "stats"})");
    service.handle(R"({"kind": "stats"})");
    EXPECT_EQ(service.journal()->admit_count(), 0U);  // probes: no records
    const std::string assess =
        service.handle(R"({"id": "a", "kit_name": "ltcc-ceramic"})");
    EXPECT_NE(assess.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_EQ(service.journal()->admit_count(), 1U);
    const ServiceMetrics& stats = service.metrics();
    EXPECT_EQ(stats.health.value(), 1U);
    EXPECT_EQ(stats.stats_probes.value(), 2U);
    EXPECT_EQ(stats.admitted.value(), 1U);  // the probes were never admitted
  }
  // The journal on disk knows nothing of the probes: one admitted seq.
  const JournalRecovery rec = scan_journal(path);
  ASSERT_EQ(rec.entries.size(), 1U);
  EXPECT_EQ(rec.entries[0].seq, 0U);
  std::remove(path.c_str());
}

// A probe line that somehow got *sequenced* — journaled as an admitted
// request — is a contract violation, and recovery refuses it through the
// kind gate instead of answering it (a probe that consumed a seq would
// shift every later response).
TEST(MetricsService, JournaledStrayStatsLineIsRefusedOnRecovery) {
  const std::string path = tmp_path("stray_stats");
  std::remove(path.c_str());
  {
    metrics::MetricsRegistry registry;
    Journal journal(path, registry);
    journal.append_admit(0, R"({"kind": "stats"})");
  }
  ServiceOptions options;
  options.journal_path = path;
  AssessmentService service(options);
  EXPECT_EQ(service.metrics().recovered.value(), 1U);
  const std::string stream = journal_response_stream(
      path, [&](std::uint64_t seq, const std::string& request) {
        return service.reexecute(seq, request);
      });
  EXPECT_NE(stream.find("\"code\": \"validation\""), std::string::npos) << stream;
  EXPECT_NE(stream.find("unknown request kind 'stats'"), std::string::npos)
      << stream;
  // The refusal is itself committed under the stray line's seq, so seq
  // accounting stays contiguous for every later request.
  service.handle(R"({"id": "after", "kit_name": "ltcc-ceramic"})");
  const JournalRecovery rec = scan_journal(path);
  ASSERT_EQ(rec.entries.size(), 2U);
  EXPECT_EQ(rec.entries[0].seq, 0U);
  EXPECT_TRUE(rec.entries[0].committed);
  EXPECT_EQ(rec.entries[1].seq, 1U);
  std::remove(path.c_str());
}

// Re-executed requests are outcomes like any other: a recovered parse error
// and a recovered validation error land in the taxonomy breakdown, and the
// stats probe and the registry read the same completed counter.
TEST(MetricsService, RecoveredErrorsCountInTheTaxonomy) {
  const std::string path = tmp_path("recovered_errors");
  std::remove(path.c_str());
  {
    metrics::MetricsRegistry registry;
    Journal journal(path, registry);
    journal.append_admit(0, "garbage");
    journal.append_admit(1, R"({"kind": "stats"})");
  }
  metrics::MetricsRegistry registry;
  ServiceOptions options;
  options.journal_path = path;
  AssessmentService service(options, &registry);
  const JsonValue v = parse_json(service.handle(R"({"kind": "stats"})"),
                                 "stats response");
  EXPECT_EQ(field(v, "recovered")->number, 2.0);
  EXPECT_EQ(field(v, "errors")->number, 2.0);
  EXPECT_EQ(field(v, "errors")->number,
            field(v, "deadline_exceeded")->number +
                field(v, "parse_errors")->number +
                field(v, "validation_errors")->number +
                field(v, "internal_errors")->number);
  EXPECT_EQ(field(v, "completed")->number,
            static_cast<double>(
                registry.counter("serve_requests_completed_total").value()));
  std::remove(path.c_str());
}

TEST(MetricsService, StatsProbeReflectsServiceCounters) {
  AssessmentService service;
  service.handle(R"({"id": "a", "kit_name": "ltcc-ceramic"})");
  service.handle("garbage");
  const JsonValue v = parse_json(service.handle(R"({"kind": "stats"})"),
                                 "stats response");
  EXPECT_EQ(field_str(v, "status"), "ok");
  EXPECT_EQ(field_str(v, "version"), kWireVersion);
  EXPECT_EQ(field(v, "admitted")->number, 2.0);
  EXPECT_EQ(field(v, "completed")->number, 2.0);
  EXPECT_EQ(field(v, "ok")->number, 1.0);
  EXPECT_EQ(field(v, "errors")->number, 1.0);
  EXPECT_EQ(field(v, "parse_errors")->number, 1.0);
  EXPECT_EQ(field(v, "validation_errors")->number, 0.0);
  EXPECT_GE(field(v, "queue_high_water")->number, 1.0);
  const JsonValue* cache = field(v, "cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(field(*cache, "misses")->number, 1.0);
  const JsonValue* traces = field(v, "traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(field(*traces, "recorded")->number, 2.0);
}

// The tentpole invariant: the full observability stack — tracing, the
// slow-request log, engine profiling — switched on produces byte-identical
// response streams to a run with everything off.
TEST(MetricsService, ReplayIsByteIdenticalWithMetricsOnVsOff) {
  const std::vector<std::string> requests = committed_requests();
  ASSERT_GE(requests.size(), 10U);

  ServiceOptions plain;
  AssessmentService service_off(plain);
  const std::string stream_off = response_stream(replay(service_off, requests));

  ServiceOptions instrumented;
  instrumented.workers = 4;
  instrumented.slow_request_ms = 0;  // log every request to stderr
  instrumented.trace_capacity = 4;   // force ring wraparound mid-replay
  metrics::set_profiling_enabled(true);
  ::testing::internal::CaptureStderr();  // swallow the slow-request lines
  AssessmentService service_on(instrumented);
  const std::string stream_on = response_stream(replay(service_on, requests));
  ::testing::internal::GetCapturedStderr();
  metrics::set_profiling_enabled(false);

  EXPECT_EQ(stream_off, stream_on);
  EXPECT_EQ(service_on.traces().pushed(), requests.size());
  EXPECT_EQ(service_on.traces().snapshot().size(), 4U);
}

TEST(MetricsService, JournaledRecoveryIsByteIdenticalWithMetricsOn) {
  const std::vector<std::string> requests = committed_requests();
  const std::string path = tmp_path("journaled");
  std::remove(path.c_str());

  ServiceOptions plain;
  AssessmentService reference(plain);
  const std::string expected = response_stream(replay(reference, requests));

  {
    ServiceOptions instrumented;
    instrumented.journal_path = path;
    instrumented.slow_request_ms = 0;
    metrics::set_profiling_enabled(true);
    ::testing::internal::CaptureStderr();
    AssessmentService service(instrumented);
    replay(service, requests);
    ::testing::internal::GetCapturedStderr();
    metrics::set_profiling_enabled(false);
  }
  EXPECT_EQ(journal_response_stream(path,
                                    [&](std::uint64_t seq, const std::string& request) {
                                      return reference.reexecute(seq, request);
                                    }),
            expected);
  std::remove(path.c_str());
}

TEST(MetricsService, GlobalCountersAreMonotoneAcrossRequests) {
  auto& r = metrics::global_metrics();
  const std::uint64_t admitted_before =
      r.counter("serve_requests_admitted_total").value();
  const std::uint64_t completed_before =
      r.counter("serve_requests_completed_total").value();
  AssessmentService service(ServiceOptions{}, &r);
  service.handle(R"({"id": "m", "kit_name": "ltcc-ceramic"})");
  service.handle(R"({"id": "m2", "kit_name": "ltcc-ceramic"})");
  EXPECT_EQ(r.counter("serve_requests_admitted_total").value(),
            admitted_before + 2);
  EXPECT_EQ(r.counter("serve_requests_completed_total").value(),
            completed_before + 2);
  EXPECT_GE(r.histogram("serve_request_total_ns").count(), 2U);
}

// Two services given their own registries, driven concurrently, each count
// only their own requests — in the stats probe and in their registry.
TEST(MetricsIsolation, ServicesWithOwnRegistriesCountOnlyTheirOwnRequests) {
  metrics::MetricsRegistry registry_a;
  metrics::MetricsRegistry registry_b;
  AssessmentService service_a(ServiceOptions{}, &registry_a);
  AssessmentService service_b(ServiceOptions{}, &registry_b);
  std::thread a([&] {
    service_a.handle(R"({"id": "a", "kit_name": "ltcc-ceramic"})");
  });
  std::thread b([&] {
    service_b.handle(R"({"id": "b", "kit_name": "ltcc-ceramic"})");
    service_b.handle(R"({"id": "b", "kit_name": "mcm-d-si"})");
    service_b.handle(R"({"id": "b", "kit_name": "organic-ep"})");
  });
  a.join();
  b.join();
  const auto check = [](AssessmentService& service,
                        metrics::MetricsRegistry& registry,
                        std::uint64_t requests) {
    const JsonValue v = parse_json(service.handle(R"({"kind": "stats"})"),
                                   "stats response");
    EXPECT_EQ(field(v, "completed")->number, static_cast<double>(requests));
    EXPECT_EQ(field(*field(v, "cache"), "misses")->number,
              static_cast<double>(requests));
    EXPECT_EQ(registry.counter("serve_requests_completed_total").value(), requests);
    EXPECT_EQ(registry.counter("serve_cache_misses_total").value(), requests);
  };
  check(service_a, registry_a, 1);
  check(service_b, registry_b, 3);
}

TEST(MetricsService, ProfilingHooksRecordOnlyWhenEnabled) {
  auto& h = metrics::global_metrics().histogram("core_profile_batch_walk_ns");
  AssessmentService cold;  // profiling off: hooks must not record
  const std::uint64_t before = h.count();
  cold.handle(R"({"id": "p0", "kit_name": "mcm-d-si"})");
  EXPECT_EQ(h.count(), before);

  metrics::set_profiling_enabled(true);
  AssessmentService warm;
  warm.handle(R"({"id": "p1", "kit_name": "mcm-d-si"})");
  metrics::set_profiling_enabled(false);
  EXPECT_GT(h.count(), before);
  EXPECT_GT(metrics::global_metrics()
                .histogram("core_profile_cost_flatten_ns")
                .count(),
            0U);
}

}  // namespace
}  // namespace ipass::serve
