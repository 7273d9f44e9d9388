// Wire protocol of ipass-serve: JSON requests and responses, one object per
// line/frame, reusing the hardened common/json parser and the kits JSON
// loader (depth caps, overflow rejection, duplicate-key rejection, unknown
// fields as errors) so a malformed request can never reach an engine.
//
// Request envelope (optional fields in brackets):
//   {"id": "r1", "kit_name": "ltcc-ceramic" | "kit": {<kit JSON>},
//    ["reference": "pcb-fr4"], ["bom": "gps-front-end"],
//    ["scope": "full" | "cost-only"], ["pareto": true],
//    ["sensitivity": true], ["weights": {"performance": 1, "size": 1,
//    "cost": 1}], ["volume": 250000], ["deadline_ms": 100]}
//
// The assessment anchors the reference kit's build-ups as the 100% rows
// (exactly like kits::sweep_kits) and appends the requested kit's variants.
// Responses are a single line of JSON built with the library's one writer
// (common/jsonfmt.hpp), every double in the %.17g format, so a response
// stream is bit-reproducible across thread counts and replays:
//   {"id": "r1", "status": "ok", "degraded": false, ...}
//   {"id": "r1", "status": "error", "code": "deadline", "message": "..."}
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "core/methodology.hpp"
#include "kits/process_kit.hpp"

namespace ipass::serve {

// Wire version token, reported by the health and stats responses (bumped
// when the protocol or response format changes).
inline constexpr const char* kWireVersion = "ipass-serve/9";

// The probe kinds the service answers at admission — no sequence number,
// no journal record, no queue slot — so a readiness check or a metrics
// scrape never perturbs the deterministic request stream.
enum class ProbeKind { None, Health, Stats };

// Classify `text` as a probe: {"kind": "health"} or {"kind": "stats"} (and
// nothing else of consequence).  Cheap on the hot path: the full parse only
// runs when the text contains a "kind" key at all.
ProbeKind probe_kind(const std::string& text);

// Whether `text` is a health probe (probe_kind == Health).
bool is_health_request(const std::string& text);
// Whether `text` is a stats probe (probe_kind == Stats).
bool is_stats_request(const std::string& text);

// A parsed, field-validated request.  Kit identity is either a registry
// name or an inline kit document (exactly one of the two).
struct AssessmentRequest {
  std::string id;
  std::string bom = "gps-front-end";
  std::string reference = "pcb-fr4";
  std::string kit_name;            // registry kit, XOR inline kit
  bool has_inline_kit = false;
  kits::ProcessKit inline_kit;
  core::PipelineScope scope = core::PipelineScope::Full;
  bool want_pareto = false;        // optional stage, shed under load
  bool want_sensitivity = false;   // optional stage, shed under load
  core::FomWeights weights;
  double volume = 0.0;             // > 0 overrides every build-up's volume
  std::int64_t deadline_ms = 0;    // 0 = no deadline
};

// Parse and validate one request.  Throws PreconditionError carrying
// ErrorCode::Parse for malformed JSON and ErrorCode::Validation for a
// well-formed document that violates the envelope contract.
AssessmentRequest parse_request(const std::string& text);

// Identity of the compile artifact a request needs: the canonical kit_json
// text of the kit (doubles in the %.17g format) plus reference/bom/scope.
// Everything else in the request (weights, volume, deadline, stages) is
// per-request evaluation state and deliberately NOT part of the key —
// repeat traffic over the same study skips MNA/area compilation entirely.
// The key is the exact canonical string (no lossy hashing): a collision
// could silently serve the wrong study, and the cache is size-bounded
// anyway.
std::string study_cache_key(const AssessmentRequest& request);

// One response line for a failed request.  `message` is escaped; `code`
// becomes the stable wire token of error_code_name (Unspecified is mapped
// to "validation" by the service before it gets here).
std::string error_response(const std::string& id, ErrorCode code,
                           const std::string& message);

}  // namespace ipass::serve
