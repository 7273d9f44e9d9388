// The JSON reading layer as it stood before the tape parser, kept verbatim
// (only wrapped in oracle namespaces) as the oracle of
// test_json_differential.cpp: the strict DOM parser, its ObjectReader, the
// kit-JSON readers and the serve request reader.  The library's tape
// parser and readers must agree with these on every input — the same
// accept/reject, ErrorCode and message, and equal results.  Do not "fix"
// anything here: a change to this file changes what the library is held
// to.
#pragma once

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strfmt.hpp"
#include "kits/kit_checks.hpp"
#include "kits/registry.hpp"
#include "serve/protocol.hpp"

// ------------------------------------------------ common/json (DOM parser)
namespace ipass::oracle {
namespace {

// Field access with named errors; every consumed key is counted so an
// unknown/extra key in a document is reported instead of ignored.  Errors
// carry ErrorCode::Validation: the document was well-formed JSON but does
// not match the expected shape.
class ObjectReader {
 public:
  // `scope` names the object in messages ("kit.substrate"); `context`
  // prefixes them ("kit JSON").
  ObjectReader(const JsonValue& v, std::string scope, const char* context);

  const JsonValue& get(const char* key, JsonValue::Type type);

  double num(const char* key) { return get(key, JsonValue::Type::Number).number; }
  std::string str(const char* key) { return get(key, JsonValue::Type::String).string; }
  bool boolean(const char* key) { return get(key, JsonValue::Type::Bool).boolean; }
  const JsonValue& obj(const char* key) { return get(key, JsonValue::Type::Object); }
  const JsonValue& arr(const char* key) { return get(key, JsonValue::Type::Array); }

  // Optional fields (the serve request envelope uses them; kit documents
  // are fully required).  Returns nullptr / the fallback when absent.
  const JsonValue* find(const char* key, JsonValue::Type type);
  double num_or(const char* key, double fallback);
  std::string str_or(const char* key, const std::string& fallback);
  bool bool_or(const char* key, bool fallback);

  // Call after reading every expected field; a document with extra keys is
  // rejected (a typo must not silently fall back to a default).
  void done() const;

 private:
  const JsonValue* value_ = nullptr;
  std::string scope_;
  const char* context_;
  std::size_t consumed_ = 0;
};

class JsonParser {
 public:
  JsonParser(const std::string& text, const char* context)
      : text_(text), context_(context) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    fail_unless(pos_ == text_.size(), "trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw PreconditionError(strf("%s: %s at offset %zu", context_, what, pos_),
                            ErrorCode::Parse);
  }
  void fail_unless(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    fail_unless(pos_ < text_.size(), "unexpected end of document");
    return text_[pos_];
  }

  void expect(char c, const char* what) {
    fail_unless(pos_ < text_.size() && text_[pos_] == c, what);
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Documents nest ~5 levels; a corrupt or hostile file must get a
      // clean rejection, not a stack overflow from unbounded recursion.
      fail_unless(depth_ < 64, "document nested too deeply");
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::Object;
    expect('{', "expected '{'");
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      // The second value for a repeated key must not silently shadow the
      // first (nor survive as an "extra field" a reader might miscount).
      for (const auto& [k, val] : v.object) {
        fail_unless(k != key.string, "duplicate object key");
      }
      skip_ws();
      expect(':', "expected ':' after object key");
      v.object.emplace_back(std::move(key.string), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}', "expected ',' or '}' in object");
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::Array;
    expect('[', "expected '['");
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']', "expected ',' or ']' in array");
      return v;
    }
  }

  JsonValue parse_string() {
    JsonValue v;
    v.type = JsonValue::Type::String;
    expect('"', "expected '\"'");
    while (true) {
      fail_unless(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string += c;
        continue;
      }
      fail_unless(pos_ < text_.size(), "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.string += '"'; break;
        case '\\': v.string += '\\'; break;
        case '/': v.string += '/'; break;
        case 'n': v.string += '\n'; break;
        case 't': v.string += '\t'; break;
        case 'r': v.string += '\r'; break;
        case 'u': {
          fail_unless(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // Names are ASCII; anything else would round-trip through the
          // escaped form anyway.
          fail_unless(code < 0x80, "non-ASCII \\u escape not supported");
          v.string += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_bool() {
    JsonValue v;
    v.type = JsonValue::Type::Bool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("expected 'true' or 'false'");
    }
    return v;
  }

  JsonValue parse_number() {
    JsonValue v;
    v.type = JsonValue::Type::Number;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
          c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    fail_unless(pos_ > start, "expected a number");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    // strtod inverts %.17g exactly: the nearest binary64 to the decimal.
    v.number = std::strtod(token.c_str(), &end);
    fail_unless(end == token.c_str() + token.size(), "malformed number");
    // An overflowing literal (e.g. an exponent typo like 1e999) comes back
    // as infinity; the writers never emit one, so reject it here instead
    // of letting inf corrupt fields downstream validation does not
    // range-check.
    fail_unless(std::isfinite(v.number), "number out of binary64 range");
    return v;
  }

  const std::string& text_;
  const char* context_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

JsonValue parse_json(const std::string& text, const char* context) {
  return JsonParser(text, context).parse_document();
}

ObjectReader::ObjectReader(const JsonValue& v, std::string scope, const char* context)
    : scope_(std::move(scope)), context_(context) {
  require(v.type == JsonValue::Type::Object,
          strf("%s: %s must be an object", context_, scope_.c_str()));
  value_ = &v;
}

const JsonValue& ObjectReader::get(const char* key, JsonValue::Type type) {
  for (const auto& [k, val] : value_->object) {
    if (k == key) {
      if (val.type != type) {
        throw PreconditionError(
            strf("%s: %s.%s has the wrong type", context_, scope_.c_str(), key),
            ErrorCode::Validation);
      }
      ++consumed_;
      return val;
    }
  }
  throw PreconditionError(
      strf("%s: %s is missing field '%s'", context_, scope_.c_str(), key),
      ErrorCode::Validation);
}

const JsonValue* ObjectReader::find(const char* key, JsonValue::Type type) {
  for (const auto& [k, val] : value_->object) {
    if (k == key) {
      if (val.type != type) {
        throw PreconditionError(
            strf("%s: %s.%s has the wrong type", context_, scope_.c_str(), key),
            ErrorCode::Validation);
      }
      ++consumed_;
      return &val;
    }
  }
  return nullptr;
}

double ObjectReader::num_or(const char* key, double fallback) {
  const JsonValue* v = find(key, JsonValue::Type::Number);
  return v ? v->number : fallback;
}

std::string ObjectReader::str_or(const char* key, const std::string& fallback) {
  const JsonValue* v = find(key, JsonValue::Type::String);
  return v ? v->string : fallback;
}

bool ObjectReader::bool_or(const char* key, bool fallback) {
  const JsonValue* v = find(key, JsonValue::Type::Bool);
  return v ? v->boolean : fallback;
}

void ObjectReader::done() const {
  if (consumed_ != value_->object.size()) {
    throw PreconditionError(
        strf("%s: %s has %zu unknown extra field(s)", context_, scope_.c_str(),
             value_->object.size() - consumed_),
        ErrorCode::Validation);
  }
}


}  // namespace
}  // namespace ipass::oracle

// ---------------------------------------------------- kits/kit_json readers
namespace ipass::kits::oracle {
namespace {

using ipass::oracle::ObjectReader;
using ipass::oracle::parse_json;

// Error-message prefix for the shared strict parser/reader (common/json).
constexpr const char* kContext = "kit JSON";

// ------------------------------------------------------------- enum tokens

const char* maturity_token(KitMaturity m) { return kit_maturity_name(m); }

KitMaturity parse_maturity(const std::string& t) {
  if (t == "experimental") return KitMaturity::Experimental;
  if (t == "pilot") return KitMaturity::Pilot;
  if (t == "production") return KitMaturity::Production;
  if (t == "mature") return KitMaturity::Mature;
  throw PreconditionError(strf("kit JSON: unknown maturity '%s'", t.c_str()));
}

const char* kind_token(tech::SubstrateKind k) {
  switch (k) {
    case tech::SubstrateKind::Pcb: return "pcb";
    case tech::SubstrateKind::McmD: return "mcm-d";
    case tech::SubstrateKind::McmDIp: return "mcm-d-ip";
    case tech::SubstrateKind::Ltcc: return "ltcc";
    case tech::SubstrateKind::OrganicEp: return "organic-ep";
    case tech::SubstrateKind::SiInterposer: return "si-interposer";
  }
  return "?";
}

tech::SubstrateKind parse_kind(const std::string& t) {
  if (t == "pcb") return tech::SubstrateKind::Pcb;
  if (t == "mcm-d") return tech::SubstrateKind::McmD;
  if (t == "mcm-d-ip") return tech::SubstrateKind::McmDIp;
  if (t == "ltcc") return tech::SubstrateKind::Ltcc;
  if (t == "organic-ep") return tech::SubstrateKind::OrganicEp;
  if (t == "si-interposer") return tech::SubstrateKind::SiInterposer;
  throw PreconditionError(strf("kit JSON: unknown substrate kind '%s'", t.c_str()));
}

const char* policy_token(core::PassivePolicy p) {
  switch (p) {
    case core::PassivePolicy::AllSmd: return "all-smd";
    case core::PassivePolicy::AllIntegrated: return "all-integrated";
    case core::PassivePolicy::Optimized: return "optimized";
  }
  return "?";
}

core::PassivePolicy parse_policy(const std::string& t) {
  if (t == "all-smd") return core::PassivePolicy::AllSmd;
  if (t == "all-integrated") return core::PassivePolicy::AllIntegrated;
  if (t == "optimized") return core::PassivePolicy::Optimized;
  throw PreconditionError(strf("kit JSON: unknown passive policy '%s'", t.c_str()));
}

const char* attach_token(tech::DieAttach a) {
  switch (a) {
    case tech::DieAttach::PackagedSmt: return "packaged-smt";
    case tech::DieAttach::WireBond: return "wire-bond";
    case tech::DieAttach::FlipChip: return "flip-chip";
  }
  return "?";
}

tech::DieAttach parse_attach(const std::string& t) {
  if (t == "packaged-smt") return tech::DieAttach::PackagedSmt;
  if (t == "wire-bond") return tech::DieAttach::WireBond;
  if (t == "flip-chip") return tech::DieAttach::FlipChip;
  throw PreconditionError(strf("kit JSON: unknown die attach '%s'", t.c_str()));
}

const char* grade_token(tech::PartsGrade g) {
  return g == tech::PartsGrade::PcbLine ? "pcb-line" : "mcm-line";
}

tech::PartsGrade parse_grade(const std::string& t) {
  if (t == "pcb-line") return tech::PartsGrade::PcbLine;
  if (t == "mcm-line") return tech::PartsGrade::McmLine;
  throw PreconditionError(strf("kit JSON: unknown parts grade '%s'", t.c_str()));
}

const char* dielectric_token(tech::Dielectric d) {
  return d == tech::Dielectric::SiliconNitride ? "si3n4" : "batio";
}

tech::Dielectric parse_dielectric(const std::string& t) {
  if (t == "si3n4") return tech::Dielectric::SiliconNitride;
  if (t == "batio") return tech::Dielectric::BariumTitanate;
  throw PreconditionError(strf("kit JSON: unknown dielectric '%s'", t.c_str()));
}

const char* semantics_token(core::YieldSemantics s) {
  return s == core::YieldSemantics::PerStep ? "per-step" : "per-joint";
}

core::YieldSemantics parse_semantics(const std::string& t) {
  if (t == "per-step") return core::YieldSemantics::PerStep;
  if (t == "per-joint") return core::YieldSemantics::PerJoint;
  throw PreconditionError(strf("kit JSON: unknown yield semantics '%s'", t.c_str()));
}


rf::QModel read_qmodel(const JsonValue& v, const std::string& scope) {
  ObjectReader r(v, scope, kContext);
  const double q_peak = r.num("q_peak");
  const double f_peak = r.num("f_peak");
  const double slope = r.num("slope");
  r.done();
  // The shared QModel gate (kit_checks.hpp) — the same check validate_kit
  // applies to an in-memory kit, so a sign-typo q_peak is rejected with one
  // message shape and ErrorCode no matter which door the kit came in.
  checks::check_qmodel_peak(q_peak, scope, "");
  if (q_peak == 0.0) return rf::QModel::lossless();
  return rf::QModel::peaked(q_peak, f_peak, slope);
}

tech::SubstrateTechnology read_substrate(const JsonValue& v, const std::string& scope) {
  ObjectReader r(v, scope, kContext);
  tech::SubstrateTechnology s;
  s.name = r.str("name");
  s.kind = parse_kind(r.str("kind"));
  s.cost_per_cm2 = r.num("cost_per_cm2");
  s.fab_yield = r.num("fab_yield");
  s.routing_overhead = r.num("routing_overhead");
  s.edge_clearance_mm = r.num("edge_clearance_mm");
  s.supports_integrated_passives = r.boolean("supports_integrated_passives");
  s.double_sided = r.boolean("double_sided");
  r.done();
  return s;
}

tech::CapacitorProcess read_capacitor(const JsonValue& v, const std::string& scope) {
  ObjectReader r(v, scope, kContext);
  tech::CapacitorProcess c;
  c.dielectric = parse_dielectric(r.str("dielectric"));
  c.density_pf_mm2 = r.num("density_pf_mm2");
  c.terminal_overhead_mm2 = r.num("terminal_overhead_mm2");
  c.quality = read_qmodel(r.obj("quality"), scope + ".quality");
  r.done();
  return c;
}

KitPassives read_passives(const JsonValue& v, const std::string& scope) {
  ObjectReader r(v, scope, kContext);
  KitPassives p;
  {
    ObjectReader res(r.obj("resistor"), scope + ".resistor", kContext);
    p.resistor.sheet_ohm_sq = res.num("sheet_ohm_sq");
    p.resistor.line_width_um = res.num("line_width_um");
    p.resistor.meander_pitch_factor = res.num("meander_pitch_factor");
    p.resistor.contact_pad_area_mm2 = res.num("contact_pad_area_mm2");
    p.resistor.tolerance = res.num("tolerance");
    p.resistor.trimmed_tolerance = res.num("trimmed_tolerance");
    res.done();
  }
  p.precision_cap = read_capacitor(r.obj("precision_cap"), scope + ".precision_cap");
  p.decap_cap = read_capacitor(r.obj("decap_cap"), scope + ".decap_cap");
  {
    ObjectReader sp(r.obj("spiral"), scope + ".spiral", kContext);
    p.spiral.line_width_um = sp.num("line_width_um");
    p.spiral.line_spacing_um = sp.num("line_spacing_um");
    p.spiral.metal_sheet_ohm_sq = sp.num("metal_sheet_ohm_sq");
    p.spiral.fill_ratio = sp.num("fill_ratio");
    p.spiral.guard_clearance_um = sp.num("guard_clearance_um");
    p.spiral.wheeler_k1 = sp.num("wheeler_k1");
    p.spiral.wheeler_k2 = sp.num("wheeler_k2");
    p.spiral.substrate_q_factor = sp.num("substrate_q_factor");
    p.spiral.max_q_peak = sp.num("max_q_peak");
    p.spiral.q_peak_freq_hz = sp.num("q_peak_freq_hz");
    p.spiral.q_slope = sp.num("q_slope");
    sp.done();
  }
  p.integrated_filter_overhead = r.num("integrated_filter_overhead");
  p.integrated_filter_spacing_mm2 = r.num("integrated_filter_spacing_mm2");
  r.done();
  return p;
}

core::ProductionData read_production(const JsonValue& v, const std::string& scope) {
  ObjectReader r(v, scope, kContext);
  core::ProductionData pd;
  pd.rf_chip_cost = r.num("rf_chip_cost");
  pd.rf_chip_yield = r.num("rf_chip_yield");
  pd.dsp_cost = r.num("dsp_cost");
  pd.dsp_yield = r.num("dsp_yield");
  pd.chip_assembly_cost = r.num("chip_assembly_cost");
  pd.chip_assembly_yield = r.num("chip_assembly_yield");
  pd.wire_bond_cost = r.num("wire_bond_cost");
  pd.wire_bond_yield = r.num("wire_bond_yield");
  pd.smd_assembly_cost = r.num("smd_assembly_cost");
  pd.smd_assembly_yield = r.num("smd_assembly_yield");
  pd.functional_test_cost = r.num("functional_test_cost");
  pd.functional_test_coverage = r.num("functional_test_coverage");
  pd.packaging_cost = r.num("packaging_cost");
  pd.packaging_yield = r.num("packaging_yield");
  pd.final_test_cost = r.num("final_test_cost");
  pd.final_test_coverage = r.num("final_test_coverage");
  pd.nre_total = r.num("nre_total");
  pd.volume = r.num("volume");
  // Multi-die fields are optional with neutral defaults: committed request
  // journals and corpus documents predate them, and a missing die list is
  // exactly the bit-pinned single-die walk.
  pd.bond_cost = r.num_or("bond_cost", 0.0);
  pd.bond_yield = r.num_or("bond_yield", 1.0);
  if (const JsonValue* dies = r.find("dies", JsonValue::Type::Array)) {
    for (std::size_t i = 0; i < dies->array.size(); ++i) {
      const std::string die_scope = strf("%s.dies[%zu]", scope.c_str(), i);
      ObjectReader dr(dies->array[i], die_scope, kContext);
      core::DieSpec d;
      d.name = dr.str("name");
      d.cost = dr.num("cost");
      d.yield = dr.num("yield");
      d.kgd_test_cost = dr.num("kgd_test_cost");
      d.kgd_escape = dr.num("kgd_escape");
      d.nre = dr.num("nre");
      dr.done();
      pd.dies.push_back(std::move(d));
    }
  }
  pd.semantics = parse_semantics(r.str("semantics"));
  r.done();
  return pd;
}

KitVariant read_variant(const JsonValue& v, const std::string& scope) {
  ObjectReader r(v, scope, kContext);
  KitVariant out;
  out.name = r.str("name");
  out.policy = parse_policy(r.str("policy"));
  out.die_attach = parse_attach(r.str("die_attach"));
  out.parts_grade = parse_grade(r.str("parts_grade"));
  out.uses_laminate = r.boolean("uses_laminate");
  out.smd_on_laminate = r.boolean("smd_on_laminate");
  out.production = read_production(r.obj("production"), scope + ".production");
  r.done();
  return out;
}

ProcessKit read_kit(const JsonValue& v) {
  ObjectReader r(v, "kit", kContext);
  ProcessKit kit;
  kit.name = r.str("name");
  kit.version = r.str("version");
  kit.maturity = parse_maturity(r.str("maturity"));
  kit.notes = r.str("notes");
  kit.substrate = read_substrate(r.obj("substrate"), "kit.substrate");
  kit.passives = read_passives(r.obj("passives"), "kit.passives");
  {
    ObjectReader c(r.obj("corner"), "kit.corner", kContext);
    kit.corner.fault_scale = c.num("fault_scale");
    kit.corner.cost_scale = c.num("cost_scale");
    c.done();
  }
  const JsonValue& variants = r.arr("variants");
  for (std::size_t i = 0; i < variants.array.size(); ++i) {
    kit.variants.push_back(
        read_variant(variants.array[i], strf("kit.variants[%zu]", i)));
  }
  r.done();
  validate_kit(kit);
  return kit;
}

ProcessKit parse_kit_json(const std::string& text) {
  return read_kit(parse_json(text, kContext));
}

ProcessKit parse_kit_json_value(const JsonValue& value) { return read_kit(value); }

KitRegistry parse_registry_json(const std::string& text) {
  const JsonValue doc = parse_json(text, kContext);
  ObjectReader r(doc, "registry", kContext);
  const JsonValue& kits = r.arr("kits");
  r.done();
  KitRegistry registry;
  for (const JsonValue& k : kits.array) {
    registry.add(read_kit(k));  // re-validates; duplicates rejected by name
  }
  return registry;
}

}  // namespace
}  // namespace ipass::kits::oracle

// ---------------------------------------------------- serve request reader
namespace ipass::serve::oracle {
namespace {

using ipass::oracle::ObjectReader;
using ipass::oracle::parse_json;
using kits::oracle::parse_kit_json_value;

constexpr const char* kContext = "serve request";

[[noreturn]] void reject(const std::string& what) {
  throw PreconditionError(strf("%s: %s", kContext, what.c_str()),
                          ErrorCode::Validation);
}

AssessmentRequest parse_request(const std::string& text) {
  const JsonValue root = parse_json(text, kContext);
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

  const JsonValue* inline_kit = r.find("kit", JsonValue::Type::Object);
  req.kit_name = r.str_or("kit_name", "");
  if (inline_kit != nullptr && !req.kit_name.empty()) {
    reject("send exactly one of 'kit' and 'kit_name', not both");
  }
  if (inline_kit == nullptr && req.kit_name.empty()) {
    reject("request needs a 'kit' object or a 'kit_name'");
  }
  if (inline_kit != nullptr) {
    req.has_inline_kit = true;
    req.inline_kit = parse_kit_json_value(*inline_kit);
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

  if (const JsonValue* w = r.find("weights", JsonValue::Type::Object)) {
    ObjectReader wr(*w, "request.weights", kContext);
    req.weights.performance = wr.num_or("performance", 1.0);
    req.weights.size = wr.num_or("size", 1.0);
    req.weights.cost = wr.num_or("cost", 1.0);
    wr.done();
  }

  if (const JsonValue* v = r.find("volume", JsonValue::Type::Number)) {
    req.volume = v->number;
    if (!(req.volume > 0.0) || !std::isfinite(req.volume)) {
      reject("'volume' must be a positive finite number");
    }
  }

  if (const JsonValue* d = r.find("deadline_ms", JsonValue::Type::Number)) {
    if (!(d->number >= 0.0) || d->number != std::floor(d->number) ||
        d->number > 86400000.0) {
      reject("'deadline_ms' must be a whole number of milliseconds in [0, 86400000]");
    }
    req.deadline_ms = static_cast<std::int64_t>(d->number);
  }

  r.done();
  return req;
}

}  // namespace
}  // namespace ipass::serve::oracle
