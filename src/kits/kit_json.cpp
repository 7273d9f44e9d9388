#include "kits/kit_json.hpp"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/jsonfmt.hpp"
#include "common/strfmt.hpp"
#include "kits/kit_checks.hpp"

namespace ipass::kits {

namespace {

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

// --------------------------------------------------------------- writing
//
// Each helper appends `text` verbatim (the separator and key of the field)
// and then the value, so the literals below read as the document itself.

// %.17g round-trips every finite binary64 exactly — but only finite ones:
// printing a non-finite field would emit 'inf'/'nan', which is not JSON
// and which no loader (including ours) could read back.  Fail loudly at
// serialization time instead of writing an unreadable document.
void num(std::string& out, const char* text, double v) {
  require(std::isfinite(v), "kit JSON: non-finite number cannot be serialized");
  out += text;
  append_json_number(out, v);
}

void str(std::string& out, const char* text, const std::string& s) {
  out += text;
  append_json_string(out, s);
}

void token(std::string& out, const char* text, const char* t) {
  out += text;
  out += '"';
  out += t;
  out += '"';
}

void boolean(std::string& out, const char* text, bool b) {
  out += text;
  out += b ? "true" : "false";
}

void append_qmodel(std::string& out, const rf::QModel& q) {
  num(out, "{\"q_peak\": ", q.q_peak());
  num(out, ", \"f_peak\": ", q.f_peak());
  num(out, ", \"slope\": ", q.slope());
  out += '}';
}

void append_substrate(std::string& out, const tech::SubstrateTechnology& s) {
  str(out, "{\"name\": ", s.name);
  token(out, ", \"kind\": ", kind_token(s.kind));
  num(out, ", \"cost_per_cm2\": ", s.cost_per_cm2);
  num(out, ", \"fab_yield\": ", s.fab_yield);
  num(out, ", \"routing_overhead\": ", s.routing_overhead);
  num(out, ", \"edge_clearance_mm\": ", s.edge_clearance_mm);
  boolean(out, ", \"supports_integrated_passives\": ", s.supports_integrated_passives);
  boolean(out, ", \"double_sided\": ", s.double_sided);
  out += '}';
}

void append_capacitor(std::string& out, const tech::CapacitorProcess& c) {
  token(out, "{\"dielectric\": ", dielectric_token(c.dielectric));
  num(out, ", \"density_pf_mm2\": ", c.density_pf_mm2);
  num(out, ", \"terminal_overhead_mm2\": ", c.terminal_overhead_mm2);
  out += ", \"quality\": ";
  append_qmodel(out, c.quality);
  out += '}';
}

void append_passives(std::string& out, const KitPassives& p) {
  num(out, "{\n      \"resistor\": {\"sheet_ohm_sq\": ", p.resistor.sheet_ohm_sq);
  num(out, ", \"line_width_um\": ", p.resistor.line_width_um);
  num(out, ", \"meander_pitch_factor\": ", p.resistor.meander_pitch_factor);
  num(out, ", \"contact_pad_area_mm2\": ", p.resistor.contact_pad_area_mm2);
  num(out, ", \"tolerance\": ", p.resistor.tolerance);
  num(out, ", \"trimmed_tolerance\": ", p.resistor.trimmed_tolerance);
  out += "},\n      \"precision_cap\": ";
  append_capacitor(out, p.precision_cap);
  out += ",\n      \"decap_cap\": ";
  append_capacitor(out, p.decap_cap);
  num(out, ",\n      \"spiral\": {\"line_width_um\": ", p.spiral.line_width_um);
  num(out, ", \"line_spacing_um\": ", p.spiral.line_spacing_um);
  num(out, ", \"metal_sheet_ohm_sq\": ", p.spiral.metal_sheet_ohm_sq);
  num(out, ", \"fill_ratio\": ", p.spiral.fill_ratio);
  num(out, ", \"guard_clearance_um\": ", p.spiral.guard_clearance_um);
  num(out, ", \"wheeler_k1\": ", p.spiral.wheeler_k1);
  num(out, ", \"wheeler_k2\": ", p.spiral.wheeler_k2);
  num(out, ", \"substrate_q_factor\": ", p.spiral.substrate_q_factor);
  num(out, ", \"max_q_peak\": ", p.spiral.max_q_peak);
  num(out, ", \"q_peak_freq_hz\": ", p.spiral.q_peak_freq_hz);
  num(out, ", \"q_slope\": ", p.spiral.q_slope);
  num(out, "},\n      \"integrated_filter_overhead\": ", p.integrated_filter_overhead);
  num(out, ",\n      \"integrated_filter_spacing_mm2\": ", p.integrated_filter_spacing_mm2);
  out += "\n    }";
}

void append_production(std::string& out, const core::ProductionData& pd) {
  out += "{\n";
  const auto field = [&](const char* name, double v) {
    out += "        \"";
    out += name;
    num(out, "\": ", v);
    out += ",\n";
  };
  field("rf_chip_cost", pd.rf_chip_cost);
  field("rf_chip_yield", pd.rf_chip_yield);
  field("dsp_cost", pd.dsp_cost);
  field("dsp_yield", pd.dsp_yield);
  field("chip_assembly_cost", pd.chip_assembly_cost);
  field("chip_assembly_yield", pd.chip_assembly_yield);
  field("wire_bond_cost", pd.wire_bond_cost);
  field("wire_bond_yield", pd.wire_bond_yield);
  field("smd_assembly_cost", pd.smd_assembly_cost);
  field("smd_assembly_yield", pd.smd_assembly_yield);
  field("functional_test_cost", pd.functional_test_cost);
  field("functional_test_coverage", pd.functional_test_coverage);
  field("packaging_cost", pd.packaging_cost);
  field("packaging_yield", pd.packaging_yield);
  field("final_test_cost", pd.final_test_cost);
  field("final_test_coverage", pd.final_test_coverage);
  field("nre_total", pd.nre_total);
  field("volume", pd.volume);
  field("bond_cost", pd.bond_cost);
  field("bond_yield", pd.bond_yield);
  out += "        \"dies\": [";
  for (std::size_t i = 0; i < pd.dies.size(); ++i) {
    const core::DieSpec& d = pd.dies[i];
    if (i) out += ", ";
    str(out, "{\"name\": ", d.name);
    num(out, ", \"cost\": ", d.cost);
    num(out, ", \"yield\": ", d.yield);
    num(out, ", \"kgd_test_cost\": ", d.kgd_test_cost);
    num(out, ", \"kgd_escape\": ", d.kgd_escape);
    num(out, ", \"nre\": ", d.nre);
    out += '}';
  }
  token(out, "],\n        \"semantics\": ", semantics_token(pd.semantics));
  out += "\n      }";
}

void append_variant(std::string& out, const KitVariant& v) {
  str(out, "{\n      \"name\": ", v.name);
  token(out, ",\n      \"policy\": ", policy_token(v.policy));
  token(out, ",\n      \"die_attach\": ", attach_token(v.die_attach));
  token(out, ",\n      \"parts_grade\": ", grade_token(v.parts_grade));
  boolean(out, ",\n      \"uses_laminate\": ", v.uses_laminate);
  boolean(out, ",\n      \"smd_on_laminate\": ", v.smd_on_laminate);
  out += ",\n      \"production\": ";
  append_production(out, v.production);
  out += "\n    }";
}

rf::QModel read_qmodel(ObjectReader r) {
  const double q_peak = r.num("q_peak");
  const double f_peak = r.num("f_peak");
  const double slope = r.num("slope");
  r.done();
  // The shared QModel gate (kit_checks.hpp) — the same check validate_kit
  // applies to an in-memory kit, so a sign-typo q_peak is rejected with one
  // message shape and ErrorCode no matter which door the kit came in.  The
  // scope string is built only for the message.
  if (!(q_peak >= 0.0)) checks::check_qmodel_peak(q_peak, r.scope(), "");
  if (q_peak == 0.0) return rf::QModel::lossless();
  return rf::QModel::peaked(q_peak, f_peak, slope);
}

tech::SubstrateTechnology read_substrate(ObjectReader r) {
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

tech::CapacitorProcess read_capacitor(ObjectReader r) {
  tech::CapacitorProcess c;
  c.dielectric = parse_dielectric(r.str("dielectric"));
  c.density_pf_mm2 = r.num("density_pf_mm2");
  c.terminal_overhead_mm2 = r.num("terminal_overhead_mm2");
  c.quality = read_qmodel(r.obj("quality"));
  r.done();
  return c;
}

KitPassives read_passives(ObjectReader r) {
  KitPassives p;
  {
    ObjectReader res = r.obj("resistor");
    p.resistor.sheet_ohm_sq = res.num("sheet_ohm_sq");
    p.resistor.line_width_um = res.num("line_width_um");
    p.resistor.meander_pitch_factor = res.num("meander_pitch_factor");
    p.resistor.contact_pad_area_mm2 = res.num("contact_pad_area_mm2");
    p.resistor.tolerance = res.num("tolerance");
    p.resistor.trimmed_tolerance = res.num("trimmed_tolerance");
    res.done();
  }
  p.precision_cap = read_capacitor(r.obj("precision_cap"));
  p.decap_cap = read_capacitor(r.obj("decap_cap"));
  {
    ObjectReader sp = r.obj("spiral");
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

core::ProductionData read_production(ObjectReader r) {
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
  if (const JsonRef dies = r.find("dies", JsonType::Array)) {
    pd.dies.reserve(dies.size());
    std::size_t i = 0;
    for (const JsonRef die : dies) {
      ObjectReader dr(die, r, "dies", i++);
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

KitVariant read_variant(ObjectReader r) {
  KitVariant out;
  out.name = r.str("name");
  out.policy = parse_policy(r.str("policy"));
  out.die_attach = parse_attach(r.str("die_attach"));
  out.parts_grade = parse_grade(r.str("parts_grade"));
  out.uses_laminate = r.boolean("uses_laminate");
  out.smd_on_laminate = r.boolean("smd_on_laminate");
  out.production = read_production(r.obj("production"));
  r.done();
  return out;
}

ProcessKit read_kit(JsonRef v) {
  ObjectReader r(v, "kit", kContext);
  ProcessKit kit;
  kit.name = r.str("name");
  kit.version = r.str("version");
  kit.maturity = parse_maturity(r.str("maturity"));
  kit.notes = r.str("notes");
  kit.substrate = read_substrate(r.obj("substrate"));
  kit.passives = read_passives(r.obj("passives"));
  {
    ObjectReader c = r.obj("corner");
    kit.corner.fault_scale = c.num("fault_scale");
    kit.corner.cost_scale = c.num("cost_scale");
    c.done();
  }
  const JsonRef variants = r.arr("variants");
  kit.variants.reserve(variants.size());
  std::size_t i = 0;
  for (const JsonRef variant : variants) {
    kit.variants.push_back(read_variant(ObjectReader(variant, r, "variants", i++)));
  }
  r.done();
  validate_kit(kit);
  return kit;
}

}  // namespace

void append_kit_json(std::string& out, const ProcessKit& kit) {
  str(out, "{\n    \"name\": ", kit.name);
  str(out, ",\n    \"version\": ", kit.version);
  token(out, ",\n    \"maturity\": ", maturity_token(kit.maturity));
  str(out, ",\n    \"notes\": ", kit.notes);
  out += ",\n    \"substrate\": ";
  append_substrate(out, kit.substrate);
  out += ",\n    \"passives\": ";
  append_passives(out, kit.passives);
  num(out, ",\n    \"corner\": {\"fault_scale\": ", kit.corner.fault_scale);
  num(out, ", \"cost_scale\": ", kit.corner.cost_scale);
  out += "},\n    \"variants\": [";
  for (std::size_t i = 0; i < kit.variants.size(); ++i) {
    if (i) out += ", ";
    append_variant(out, kit.variants[i]);
  }
  out += "]\n}\n";
}

std::string kit_json(const ProcessKit& kit) {
  std::string out;
  append_kit_json(out, kit);
  return out;
}

std::string registry_json(const KitRegistry& registry) {
  std::string out = "{\"kits\": [\n";
  const std::vector<ProcessKit>& kits = registry.kits();
  for (std::size_t i = 0; i < kits.size(); ++i) {
    append_kit_json(out, kits[i]);
    if (i + 1 < kits.size()) out += ",\n";
  }
  out += "]}\n";
  return out;
}

ProcessKit parse_kit_json(const std::string& text) {
  return read_kit(JsonDocument(text, kContext).root());
}

ProcessKit parse_kit_json_value(JsonRef value) { return read_kit(value); }

KitRegistry parse_registry_json(const std::string& text) {
  const JsonDocument doc(text, kContext);
  ObjectReader r(doc.root(), "registry", kContext);
  const JsonRef kits = r.arr("kits");
  r.done();
  KitRegistry registry;
  for (const JsonRef k : kits) {
    registry.add(read_kit(k));  // re-validates; duplicates rejected by name
  }
  return registry;
}

}  // namespace ipass::kits
