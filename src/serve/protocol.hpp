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
#include <exception>
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

// One request text, parsed once onto a JSON tape: the admission probe
// check and the request reader both read this, so no request is parsed
// twice.  Exactly one of the two is set: the document of a well-formed
// text, or the parse error a malformed one raised (PreconditionError,
// ErrorCode::Parse), kept to be thrown when the request is processed.
struct RequestDocument {
  JsonDocument json;
  std::exception_ptr error;
};

// Parse `text` onto its tape; never throws.
RequestDocument parse_request_document(const std::string& text);

// Classify a request as a probe by its top-level "kind" field:
// {"kind": "health"} or {"kind": "stats"} (other fields are ignored).  A
// malformed text, a non-object or any other kind is not a probe.
ProbeKind probe_kind(const RequestDocument& doc);

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

// Read and validate one request off its document.  Throws the document's
// parse error (ErrorCode::Parse) for malformed JSON, and PreconditionError
// carrying ErrorCode::Validation for a well-formed document that violates
// the envelope contract.
AssessmentRequest parse_request(const RequestDocument& doc);

// Identity of the compile artifact a request needs: reference/bom/scope
// plus the kit, as "kit=name:<registry name>" or, for an inline kit,
// "kit=bits:" and its kits::append_kit_key bytes (each double's bits, so
// two kits share a key exactly when their kit_json texts are equal).
// Everything else in the request (weights, volume, deadline, stages) is
// per-request evaluation state and deliberately NOT part of the key —
// repeat traffic over the same study skips MNA/area compilation entirely.
// The key is exact (no lossy hashing): a collision could silently serve
// the wrong study, and the cache is size-bounded anyway.
std::string study_cache_key(const AssessmentRequest& request);

// One response line for a failed request.  `message` is escaped; `code`
// becomes the stable wire token of error_code_name (Unspecified is mapped
// to "validation" by the service before it gets here).
std::string error_response(const std::string& id, ErrorCode code,
                           const std::string& message);

}  // namespace ipass::serve
