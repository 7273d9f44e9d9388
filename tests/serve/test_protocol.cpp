#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "kits/kit_json.hpp"
#include "kits/registry.hpp"
#include "serve/service.hpp"

namespace ipass::serve {
namespace {

// The service's two steps in one: the text's one parse, then the reader.
AssessmentRequest parse_request(const std::string& text) {
  return serve::parse_request(parse_request_document(text));
}

ProbeKind probe_of(const std::string& text) {
  return probe_kind(parse_request_document(text));
}

// Returns the taxonomy code parse_request rejects `text` with.
ErrorCode rejection_code(const std::string& text, const char* needle = nullptr) {
  try {
    parse_request(text);
  } catch (const PreconditionError& e) {
    if (needle != nullptr) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << needle << "'";
    }
    return e.code();
  }
  ADD_FAILURE() << "request was accepted: " << text;
  return ErrorCode::Unspecified;
}

TEST(ServeProtocol, MinimalRequestGetsDefaults) {
  const AssessmentRequest r = parse_request(R"({"id": "a", "kit_name": "ltcc-ceramic"})");
  EXPECT_EQ(r.id, "a");
  EXPECT_EQ(r.kit_name, "ltcc-ceramic");
  EXPECT_FALSE(r.has_inline_kit);
  EXPECT_EQ(r.bom, "gps-front-end");
  EXPECT_EQ(r.reference, "pcb-fr4");
  EXPECT_EQ(r.scope, core::PipelineScope::Full);
  EXPECT_FALSE(r.want_pareto);
  EXPECT_FALSE(r.want_sensitivity);
  EXPECT_EQ(r.weights.performance, 1.0);
  EXPECT_EQ(r.volume, 0.0);
  EXPECT_EQ(r.deadline_ms, 0);
}

TEST(ServeProtocol, FullEnvelopeParses) {
  const AssessmentRequest r = parse_request(
      R"({"id": "b", "kit_name": "mcm-d-si-ip", "reference": "pcb-fr4",)"
      R"( "bom": "gps-front-end", "scope": "cost-only", "pareto": true,)"
      R"( "weights": {"size": 0.5, "cost": 2}, "volume": 250000, "deadline_ms": 100})");
  EXPECT_EQ(r.scope, core::PipelineScope::CostOnly);
  EXPECT_TRUE(r.want_pareto);
  EXPECT_EQ(r.weights.performance, 1.0);
  EXPECT_EQ(r.weights.size, 0.5);
  EXPECT_EQ(r.weights.cost, 2.0);
  EXPECT_EQ(r.volume, 250000.0);
  EXPECT_EQ(r.deadline_ms, 100);
}

TEST(ServeProtocol, InlineKitParsesWithKitJsonValidation) {
  const std::string kit =
      kits::kit_json(kits::builtin_kit_registry().at(kits::kLtccKit));
  const AssessmentRequest r =
      parse_request(R"({"id": "c", "kit": )" + kit + "}");
  EXPECT_TRUE(r.has_inline_kit);
  EXPECT_EQ(r.inline_kit.name, kits::kLtccKit);
  // The inline document goes through the full kit-JSON validation.
  std::string bad = kit;
  const std::string from = "\"fab_yield\": 0.96999999999999997";
  const std::size_t at = bad.find(from);
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, from.size(), "\"fab_yield\": 1.5");
  EXPECT_EQ(rejection_code(R"({"id": "c", "kit": )" + bad + "}", "fab_yield"),
            ErrorCode::Validation);  // validate_kit rejects through the shared
                                    // kit_checks vocabulary
}

TEST(ServeProtocol, MalformedJsonIsParseErrorEverythingElseValidation) {
  EXPECT_EQ(rejection_code("{\"id\": \"x\"", "serve request"), ErrorCode::Parse);
  EXPECT_EQ(rejection_code("nonsense"), ErrorCode::Parse);
  EXPECT_EQ(rejection_code(R"({"id": "x", "kit_name": "k", "kit_name": "k"})",
                           "duplicate object key"),
            ErrorCode::Parse);

  EXPECT_EQ(rejection_code(R"({"kit_name": "k"})", "missing field 'id'"),
            ErrorCode::Validation);
  EXPECT_EQ(rejection_code(R"({"id": "", "kit_name": "k"})", "must not be empty"),
            ErrorCode::Validation);
  EXPECT_EQ(rejection_code(R"({"id": "x"})", "'kit' object or a 'kit_name'"),
            ErrorCode::Validation);
  EXPECT_EQ(rejection_code(R"({"id": "x", "kit_name": "k", "kit": {}})",
                           "exactly one"),
            ErrorCode::Validation);
  EXPECT_EQ(rejection_code(R"({"id": "x", "kit_name": "k", "scope": "partial"})",
                           "unknown scope 'partial'"),
            ErrorCode::Validation);
  EXPECT_EQ(rejection_code(R"({"id": "x", "kit_name": "k", "volume": -5})",
                           "'volume'"),
            ErrorCode::Validation);
  EXPECT_EQ(rejection_code(R"({"id": "x", "kit_name": "k", "deadline_ms": 0.5})",
                           "'deadline_ms'"),
            ErrorCode::Validation);
  EXPECT_EQ(rejection_code(R"({"id": "x", "kit_name": "k", "bogus": 1})",
                           "extra field"),
            ErrorCode::Validation);
  EXPECT_EQ(
      rejection_code(R"({"id": "x", "kit_name": "k", "weights": {"speed": 1}})",
                     "extra field"),
      ErrorCode::Validation);
  EXPECT_EQ(rejection_code(
                R"({"id": "x", "kit_name": "k", "scope": "cost-only", "sensitivity": true})",
                "sensitivity needs scope 'full'"),
            ErrorCode::Validation);
}

TEST(ServeProtocol, CacheKeyCoversStudyIdentityOnly) {
  const auto key_of = [](const std::string& text) {
    return study_cache_key(parse_request(text));
  };
  const std::string base = key_of(R"({"id": "a", "kit_name": "ltcc-ceramic"})");
  // Evaluation-state fields share the compile artifact...
  EXPECT_EQ(base, key_of(R"({"id": "b", "kit_name": "ltcc-ceramic",)"
                         R"( "volume": 9, "deadline_ms": 50, "pareto": true,)"
                         R"( "weights": {"cost": 3}})"));
  // ...study-identity fields do not.
  EXPECT_NE(base, key_of(R"({"id": "a", "kit_name": "mcm-d-si-ip"})"));
  EXPECT_NE(base, key_of(R"({"id": "a", "kit_name": "ltcc-ceramic", "scope": "cost-only"})"));
  EXPECT_NE(base, key_of(R"({"id": "a", "kit_name": "ltcc-ceramic", "reference": "organic-ep"})"));
}

TEST(ServeProtocol, InlineKitKeyIsCanonical) {
  const std::string kit =
      kits::kit_json(kits::builtin_kit_registry().at(kits::kLtccKit));
  // Same kit serialized with different whitespace -> same key.
  std::string spaced = kit;
  for (std::size_t i = spaced.find('\n'); i != std::string::npos;
       i = spaced.find('\n', i + 2)) {
    spaced.replace(i, 1, "\n ");
  }
  const std::string a = study_cache_key(parse_request(R"({"id": "a", "kit": )" + kit + "}"));
  const std::string b =
      study_cache_key(parse_request(R"({"id": "b", "kit": )" + spaced + "}"));
  EXPECT_EQ(a, b);
}

TEST(ServeProtocol, KindFieldGatesHealthFromAssess) {
  // Detection: a real probe, with or without extra whitespace.
  EXPECT_EQ(probe_of(R"({"kind": "health"})"), ProbeKind::Health);
  EXPECT_EQ(probe_of(R"(  { "kind" : "health" }  )"), ProbeKind::Health);
  // Non-objects, other kinds, or "kind" merely as a substring are not.
  EXPECT_EQ(probe_of(R"({"kind": "assess", "id": "x"})"), ProbeKind::None);
  EXPECT_EQ(probe_of(R"(["kind", "health"])"), ProbeKind::None);
  EXPECT_EQ(probe_of(R"({"id": "x", "note": "\"kind\": \"health\""})"), ProbeKind::None);
  EXPECT_EQ(probe_of("not json \"kind\""), ProbeKind::None);
  EXPECT_EQ(probe_of(R"({"id": "x", "kit_name": "pcb-fr4"})"), ProbeKind::None);
  // Only the top-level "kind" counts: an inline kit's substrate.kind does
  // not make a request a probe.
  EXPECT_EQ(probe_of(R"({"id": "x", "kit": {"kind": "health"}})"), ProbeKind::None);

  // parse_request accepts an explicit assess kind and rejects the rest.
  const AssessmentRequest req =
      parse_request(R"({"id": "a", "kind": "assess", "kit_name": "pcb-fr4"})");
  EXPECT_EQ(req.id, "a");
  try {
    parse_request(R"({"id": "a", "kind": "probe", "kit_name": "pcb-fr4"})");
    FAIL() << "expected rejection of unknown kind";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Validation);
    EXPECT_NE(std::string(e.what()).find("unknown request kind 'probe'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocol, KindFieldGatesStatsFromAssess) {
  // Stats probes classify exactly like health probes.
  EXPECT_EQ(probe_of(R"({"kind": "stats"})"), ProbeKind::Stats);
  EXPECT_EQ(probe_of(R"(  { "kind" : "stats" }  )"), ProbeKind::Stats);
  EXPECT_EQ(probe_of(R"({"kind": "health"})"), ProbeKind::Health);
  EXPECT_EQ(probe_of(R"({"kind": "assess", "id": "x"})"), ProbeKind::None);
  EXPECT_EQ(probe_of(R"({"id": "x", "kit_name": "pcb-fr4"})"), ProbeKind::None);
  EXPECT_EQ(probe_of(R"({"kind": "stats", "id": "x"})"), ProbeKind::Stats);
  EXPECT_EQ(probe_of(R"({"kind": "stats")"), ProbeKind::None);  // malformed
  EXPECT_EQ(probe_of(R"({"kind": 1})"), ProbeKind::None);

  // The kind gate refuses sequenced probes with Validation: a probe that
  // consumed a sequence number would shift every later response, so it must
  // never survive parse_request.
  for (const char* kind : {"stats", "health"}) {
    try {
      parse_request(std::string(R"({"id": "a", "kind": ")") + kind +
                    R"(", "kit_name": "pcb-fr4"})");
      FAIL() << "expected rejection of sequenced '" << kind << "' probe";
    } catch (const PreconditionError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Validation);
      EXPECT_NE(std::string(e.what())
                    .find(std::string("unknown request kind '") + kind + "'"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("answered at admission"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ServeProtocol, WireVersionNamesTheProtocolGeneration) {
  EXPECT_STREQ(kWireVersion, "ipass-serve/9");
}

// The stats response shape is wire contract: scrapers key on these fields,
// so adding is fine but renaming or dropping one is a version bump.
TEST(ServeProtocol, StatsResponseShapeIsPinned) {
  const std::string path = ::testing::TempDir() + "ipass_protocol_stats.wal";
  std::remove(path.c_str());
  ServiceOptions options;
  options.journal_path = path;
  AssessmentService service(options);
  service.handle(R"({"id": "a", "kit_name": "ltcc-ceramic"})");
  service.handle("garbage");
  service.handle(R"({"kind": "health"})");

  const JsonValue v =
      parse_json(service.handle(R"({"kind": "stats"})"), "stats response");
  const auto field = [&](const char* key) -> const JsonValue* {
    for (const auto& [k, val] : v.object) {
      if (k == key) return &val;
    }
    ADD_FAILURE() << "stats response lacks field " << key;
    return nullptr;
  };
  ASSERT_EQ(v.type, JsonValue::Type::Object);
  EXPECT_EQ(field("status")->string, "ok");
  EXPECT_EQ(field("kind")->string, "stats");
  EXPECT_EQ(field("version")->string, kWireVersion);
  // Queue pressure: depth now, plus the high-water mark of queue + running.
  EXPECT_EQ(field("queue_depth")->number, 0.0);
  EXPECT_EQ(field("queue_high_water")->number, 1.0);
  EXPECT_EQ(field("running")->number, 0.0);
  EXPECT_EQ(field("workers")->number, 1.0);
  // Outcome counters with the per-taxonomy error breakdown.
  EXPECT_EQ(field("admitted")->number, 2.0);
  EXPECT_EQ(field("completed")->number, 2.0);
  EXPECT_EQ(field("ok")->number, 1.0);
  EXPECT_EQ(field("errors")->number, 1.0);
  EXPECT_EQ(field("overloaded")->number, 0.0);
  EXPECT_EQ(field("degraded")->number, 0.0);
  EXPECT_EQ(field("deadline_exceeded")->number, 0.0);
  EXPECT_EQ(field("parse_errors")->number, 1.0);
  EXPECT_EQ(field("validation_errors")->number, 0.0);
  EXPECT_EQ(field("internal_errors")->number, 0.0);
  EXPECT_EQ(field("recovered")->number, 0.0);
  EXPECT_EQ(field("health_probes")->number, 1.0);
  // The probe counts itself at admission, so this very response says 1.
  EXPECT_EQ(field("stats_probes")->number, 1.0);
  const JsonValue* cache = field("cache");
  ASSERT_NE(cache, nullptr);
  ASSERT_EQ(cache->object.size(), 6U);  // size, hits, misses, waits,
                                        // evictions, failures
  const JsonValue* journal = field("journal");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->object[0].first, "enabled");
  EXPECT_TRUE(journal->object[0].second.boolean);
  EXPECT_EQ(journal->object[1].first, "admits");
  EXPECT_EQ(journal->object[1].second.number, 2.0);
  EXPECT_EQ(journal->object[2].first, "commits");
  EXPECT_EQ(journal->object[2].second.number, 2.0);
  EXPECT_EQ(journal->object[3].first, "lag");
  EXPECT_EQ(journal->object[3].second.number, 0.0);
  const JsonValue* traces = field("traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->object[0].first, "capacity");
  EXPECT_EQ(traces->object[1].first, "recorded");
  EXPECT_EQ(traces->object[1].second.number, 2.0);
  EXPECT_FALSE(field("draining")->boolean);
  std::remove(path.c_str());
}

TEST(ServeProtocol, ErrorResponseEscapesAndNamesCode) {
  const std::string line = error_response("r\"1", ErrorCode::Deadline, "a\nb");
  EXPECT_EQ(line,
            "{\"id\": \"r\\\"1\", \"status\": \"error\", \"code\": \"deadline\", "
            "\"message\": \"a\\nb\"}");
}

}  // namespace
}  // namespace ipass::serve
