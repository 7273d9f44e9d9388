#include "serve/protocol.hpp"

#include <cmath>

#include "common/jsonfmt.hpp"
#include "common/strfmt.hpp"
#include "kits/kit_json.hpp"

namespace ipass::serve {

namespace {
constexpr const char* kContext = "serve request";

[[noreturn]] void reject(const std::string& what) {
  throw PreconditionError(strf("%s: %s", kContext, what.c_str()),
                          ErrorCode::Validation);
}

AssessmentRequest read_request(JsonRef root) {
  ObjectReader r(root, "request", kContext);
  AssessmentRequest req;
  const std::string kind = r.str_or("kind", "assess");
  if (kind != "assess") {
    // 'health' and 'stats' land here only when a probe was sequenced into
    // the admitted request stream (e.g. a stray probe line inside a journal)
    // — probes must never consume a sequence number, so the gate refuses
    // them instead of answering.
    reject(strf("unknown request kind '%s' (health/stats probes are answered "
                "at admission; everything else must be 'assess')",
                kind.c_str()));
  }
  req.id = r.str("id");
  if (req.id.empty()) reject("'id' must not be empty");

  const JsonRef inline_kit = r.find("kit", JsonType::Object);
  req.kit_name = r.str_or("kit_name", "");
  if (inline_kit && !req.kit_name.empty()) {
    reject("send exactly one of 'kit' and 'kit_name', not both");
  }
  if (!inline_kit && req.kit_name.empty()) {
    reject("request needs a 'kit' object or a 'kit_name'");
  }
  if (inline_kit) {
    req.has_inline_kit = true;
    req.inline_kit = kits::parse_kit_json_value(inline_kit);
  }

  req.bom = r.str_or("bom", req.bom);
  req.reference = r.str_or("reference", req.reference);

  const std::string scope = r.str_or("scope", "full");
  if (scope == "full") {
    req.scope = core::PipelineScope::Full;
  } else if (scope == "cost-only") {
    req.scope = core::PipelineScope::CostOnly;
  } else {
    reject(strf("unknown scope '%s' (expected 'full' or 'cost-only')",
                scope.c_str()));
  }

  req.want_pareto = r.bool_or("pareto", false);
  req.want_sensitivity = r.bool_or("sensitivity", false);
  if (req.want_sensitivity && req.scope != core::PipelineScope::Full) {
    reject("sensitivity needs scope 'full'");
  }

  if (const JsonRef w = r.find("weights", JsonType::Object)) {
    ObjectReader wr(w, r, "weights");
    req.weights.performance = wr.num_or("performance", 1.0);
    req.weights.size = wr.num_or("size", 1.0);
    req.weights.cost = wr.num_or("cost", 1.0);
    wr.done();
  }

  if (const JsonRef v = r.find("volume", JsonType::Number)) {
    req.volume = v.number();
    if (!(req.volume > 0.0) || !std::isfinite(req.volume)) {
      reject("'volume' must be a positive finite number");
    }
  }

  if (const JsonRef d = r.find("deadline_ms", JsonType::Number)) {
    const double ms = d.number();
    if (!(ms >= 0.0) || ms != std::floor(ms) || ms > 86400000.0) {
      reject("'deadline_ms' must be a whole number of milliseconds in [0, 86400000]");
    }
    req.deadline_ms = static_cast<std::int64_t>(ms);
  }

  r.done();
  return req;
}

}  // namespace

RequestDocument parse_request_document(const std::string& text) {
  RequestDocument doc;
  try {
    doc.json = JsonDocument(text, kContext);
  } catch (...) {
    doc.error = std::current_exception();
  }
  return doc;
}

ProbeKind probe_kind(const RequestDocument& doc) {
  if (doc.error) return ProbeKind::None;
  const JsonRef root = doc.json.root();
  if (root.type() != JsonType::Object) return ProbeKind::None;
  for (const auto& [key, value] : root.members()) {
    if (key != "kind") continue;
    if (value.string() == "health") return ProbeKind::Health;
    if (value.string() == "stats") return ProbeKind::Stats;
    return ProbeKind::None;
  }
  return ProbeKind::None;
}

AssessmentRequest parse_request(const RequestDocument& doc) {
  if (doc.error) std::rethrow_exception(doc.error);
  return read_request(doc.json.root());
}

std::string study_cache_key(const AssessmentRequest& request) {
  std::string key;
  key.reserve(request.has_inline_kit ? 1280 : 128);  // a kit key is 0.6-1 KB
  key += "bom=";
  key += request.bom;
  key += ";reference=";
  key += request.reference;
  key += ";scope=";
  key += request.scope == core::PipelineScope::Full ? "full" : "cost-only";
  key += ";kit=";
  if (request.has_inline_kit) {
    // The kit's field bytes: two inline documents that parse to the same
    // kit (whitespace, field order) share one compile artifact.
    key += "bits:";
    kits::append_kit_key(key, request.inline_kit);
  } else {
    key += "name:";
    key += request.kit_name;
  }
  return key;
}

std::string error_response(const std::string& id, ErrorCode code,
                           const std::string& message) {
  std::string out = "{\"id\": ";
  append_json_string(out, id);
  out += ", \"status\": \"error\", \"code\": \"";
  out += error_code_name(code);
  out += "\", \"message\": ";
  append_json_string(out, message);
  out += "}";
  return out;
}

}  // namespace ipass::serve
