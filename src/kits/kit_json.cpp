#include "kits/kit_json.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
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
//
// One table per enum, read in both directions: the writer looks up a
// value's token, the reader a token's value.

template <class E, std::size_t N>
struct Tokens {
  const char* unknown;  // the reader's error message, before the token
  std::pair<E, const char*> list[N];

  const char* token(E value) const {
    for (const auto& [v, text] : list) {
      if (v == value) return text;
    }
    return "?";
  }
  E value(std::string_view token) const {
    for (const auto& [v, text] : list) {
      if (token == text) return v;
    }
    throw PreconditionError(strf("kit JSON: %s '%s'", unknown, std::string(token).c_str()));
  }
};

using core::PassivePolicy;
using core::YieldSemantics;
using tech::DieAttach;
using tech::Dielectric;
using tech::PartsGrade;
using tech::SubstrateKind;

const Tokens<KitMaturity, 4> kMaturity = {
    "unknown maturity",
    {{KitMaturity::Experimental, "experimental"}, {KitMaturity::Pilot, "pilot"},
     {KitMaturity::Production, "production"}, {KitMaturity::Mature, "mature"}}};
const Tokens<SubstrateKind, 6> kKind = {
    "unknown substrate kind",
    {{SubstrateKind::Pcb, "pcb"}, {SubstrateKind::McmD, "mcm-d"},
     {SubstrateKind::McmDIp, "mcm-d-ip"}, {SubstrateKind::Ltcc, "ltcc"},
     {SubstrateKind::OrganicEp, "organic-ep"}, {SubstrateKind::SiInterposer, "si-interposer"}}};
const Tokens<PassivePolicy, 3> kPolicy = {
    "unknown passive policy",
    {{PassivePolicy::AllSmd, "all-smd"}, {PassivePolicy::AllIntegrated, "all-integrated"},
     {PassivePolicy::Optimized, "optimized"}}};
const Tokens<DieAttach, 3> kAttach = {
    "unknown die attach",
    {{DieAttach::PackagedSmt, "packaged-smt"}, {DieAttach::WireBond, "wire-bond"},
     {DieAttach::FlipChip, "flip-chip"}}};
const Tokens<PartsGrade, 2> kGrade = {
    "unknown parts grade", {{PartsGrade::PcbLine, "pcb-line"}, {PartsGrade::McmLine, "mcm-line"}}};
const Tokens<Dielectric, 2> kDielectric = {
    "unknown dielectric",
    {{Dielectric::SiliconNitride, "si3n4"}, {Dielectric::BariumTitanate, "batio"}}};
const Tokens<YieldSemantics, 2> kSemantics = {
    "unknown yield semantics",
    {{YieldSemantics::PerStep, "per-step"}, {YieldSemantics::PerJoint, "per-joint"}}};

// ----------------------------------------------------------- the document
//
// Each fields() overload lists one object's keys in document order.  The
// Writer and the Reader below both walk these lists, so what is written and
// what is accepted cannot drift apart.

// A written object's whitespace: inline ({"a": 1, "b": 2}) when `indent` is
// 0, else one field per line at `indent` spaces and the closing brace on a
// line of its own at `close` spaces.
struct Layout { std::size_t indent = 0, close = 0; };

// `T` as adapter `Io` visits it: const for the Writer, mutable for the Reader.
template <class Io, class T>
using Obj = std::conditional_t<Io::kWrites, const T, T>;

// rf::QModel is built from these, not filled in place (q_peak 0 = lossless).
struct QFields { double q_peak = 0.0, f_peak = 0.0, slope = 0.0; };

template <class Io> void fields(Io& io, Obj<Io, QFields>& q) {
  io.num("q_peak", q.q_peak);
  io.num("f_peak", q.f_peak);
  io.num("slope", q.slope);
}

template <class Io> void fields(Io& io, Obj<Io, tech::SubstrateTechnology>& s) {
  io.str("name", s.name);
  io.token("kind", s.kind, kKind);
  io.num("cost_per_cm2", s.cost_per_cm2);
  io.num("fab_yield", s.fab_yield);
  io.num("routing_overhead", s.routing_overhead);
  io.num("edge_clearance_mm", s.edge_clearance_mm);
  io.boolean("supports_integrated_passives", s.supports_integrated_passives);
  io.boolean("double_sided", s.double_sided);
}

template <class Io> void fields(Io& io, Obj<Io, tech::ResistorProcess>& r) {
  io.num("sheet_ohm_sq", r.sheet_ohm_sq);
  io.num("line_width_um", r.line_width_um);
  io.num("meander_pitch_factor", r.meander_pitch_factor);
  io.num("contact_pad_area_mm2", r.contact_pad_area_mm2);
  io.num("tolerance", r.tolerance);
  io.num("trimmed_tolerance", r.trimmed_tolerance);
}

template <class Io> void fields(Io& io, Obj<Io, tech::CapacitorProcess>& c) {
  io.token("dielectric", c.dielectric, kDielectric);
  io.num("density_pf_mm2", c.density_pf_mm2);
  io.num("terminal_overhead_mm2", c.terminal_overhead_mm2);
  io.obj("quality", c.quality);
}

template <class Io> void fields(Io& io, Obj<Io, tech::SpiralInductorProcess>& s) {
  io.num("line_width_um", s.line_width_um);
  io.num("line_spacing_um", s.line_spacing_um);
  io.num("metal_sheet_ohm_sq", s.metal_sheet_ohm_sq);
  io.num("fill_ratio", s.fill_ratio);
  io.num("guard_clearance_um", s.guard_clearance_um);
  io.num("wheeler_k1", s.wheeler_k1);
  io.num("wheeler_k2", s.wheeler_k2);
  io.num("substrate_q_factor", s.substrate_q_factor);
  io.num("max_q_peak", s.max_q_peak);
  io.num("q_peak_freq_hz", s.q_peak_freq_hz);
  io.num("q_slope", s.q_slope);
}

template <class Io> void fields(Io& io, Obj<Io, KitPassives>& p) {
  io.obj("resistor", p.resistor);
  io.obj("precision_cap", p.precision_cap);
  io.obj("decap_cap", p.decap_cap);
  io.obj("spiral", p.spiral);
  io.num("integrated_filter_overhead", p.integrated_filter_overhead);
  io.num("integrated_filter_spacing_mm2", p.integrated_filter_spacing_mm2);
}

template <class Io> void fields(Io& io, Obj<Io, core::ProcessCorner>& c) {
  io.num("fault_scale", c.fault_scale);
  io.num("cost_scale", c.cost_scale);
}

template <class Io> void fields(Io& io, Obj<Io, core::DieSpec>& d) {
  io.str("name", d.name);
  io.num("cost", d.cost);
  io.num("yield", d.yield);
  io.num("kgd_test_cost", d.kgd_test_cost);
  io.num("kgd_escape", d.kgd_escape);
  io.num("nre", d.nre);
}

template <class Io> void fields(Io& io, Obj<Io, core::ProductionData>& pd) {
  io.num("rf_chip_cost", pd.rf_chip_cost);
  io.num("rf_chip_yield", pd.rf_chip_yield);
  io.num("dsp_cost", pd.dsp_cost);
  io.num("dsp_yield", pd.dsp_yield);
  io.num("chip_assembly_cost", pd.chip_assembly_cost);
  io.num("chip_assembly_yield", pd.chip_assembly_yield);
  io.num("wire_bond_cost", pd.wire_bond_cost);
  io.num("wire_bond_yield", pd.wire_bond_yield);
  io.num("smd_assembly_cost", pd.smd_assembly_cost);
  io.num("smd_assembly_yield", pd.smd_assembly_yield);
  io.num("functional_test_cost", pd.functional_test_cost);
  io.num("functional_test_coverage", pd.functional_test_coverage);
  io.num("packaging_cost", pd.packaging_cost);
  io.num("packaging_yield", pd.packaging_yield);
  io.num("final_test_cost", pd.final_test_cost);
  io.num("final_test_coverage", pd.final_test_coverage);
  io.num("nre_total", pd.nre_total);
  io.num("volume", pd.volume);
  // Multi-die fields are optional on read with neutral defaults: committed
  // request journals and corpus documents predate them, and no bond cost,
  // unit bond yield and no dies is exactly the bit-pinned single-die walk.
  io.optional("bond_cost", pd.bond_cost, 0.0);
  io.optional("bond_yield", pd.bond_yield, 1.0);
  io.optional("dies", pd.dies);
  io.token("semantics", pd.semantics, kSemantics);
}

template <class Io> void fields(Io& io, Obj<Io, KitVariant>& v) {
  io.str("name", v.name);
  io.token("policy", v.policy, kPolicy);
  io.token("die_attach", v.die_attach, kAttach);
  io.token("parts_grade", v.parts_grade, kGrade);
  io.boolean("uses_laminate", v.uses_laminate);
  io.boolean("smd_on_laminate", v.smd_on_laminate);
  io.obj("production", v.production, Layout{8, 6});
}

template <class Io> void fields(Io& io, Obj<Io, ProcessKit>& k) {
  io.str("name", k.name);
  io.str("version", k.version);
  io.token("maturity", k.maturity, kMaturity);
  io.str("notes", k.notes);
  io.obj("substrate", k.substrate);
  io.obj("passives", k.passives, Layout{6, 4});
  io.obj("corner", k.corner);
  io.array("variants", k.variants, Layout{6, 4});
}

template <class Io> void fields(Io& io, Obj<Io, KitRegistry>& r) { io.kits("kits", r); }

// --------------------------------------------------------------- writing

struct Writer {
  static constexpr bool kWrites = true;

  // Appends `v` to `out` as one object in `layout`.
  template <class T>
  static void object(std::string& out, const T& v, Layout layout) {
    Writer w{out, layout};
    out += '{';
    fields(w, v);
    if (layout.indent > 0) out.append("\n").append(layout.close, ' ');
    out += '}';
  }
  static void object(std::string& out, const rf::QModel& q, Layout layout) {
    object(out, QFields{q.q_peak(), q.f_peak(), q.slope()}, layout);
  }

  // %.17g round-trips every finite binary64 exactly, but only finite ones:
  // 'inf'/'nan' is not JSON and no loader could read it back, so a
  // non-finite field fails here instead of writing an unreadable document.
  void num(const char* k, double v) {
    require(std::isfinite(v), "kit JSON: non-finite number cannot be serialized");
    key(k);
    append_json_number(out_, v);
  }
  void str(const char* k, const std::string& s) { append_json_string(key(k), s); }
  void boolean(const char* k, bool b) { key(k) += b ? "true" : "false"; }
  template <class E, std::size_t N>
  void token(const char* k, E v, const Tokens<E, N>& tokens) {
    key(k).append("\"").append(tokens.token(v)).append("\"");
  }
  template <class T> void obj(const char* k, const T& v, Layout layout = {}) {
    object(key(k), v, layout);
  }
  template <class T>
  void array(const char* k, const std::vector<T>& v, Layout layout = {}) {
    key(k) += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out_ += ", ";
      object(out_, v[i], layout);
    }
    out_ += ']';
  }
  // Optional fields are always written.
  void optional(const char* k, double v, double /*fallback*/) { num(k, v); }
  template <class T> void optional(const char* k, const std::vector<T>& v) { array(k, v); }

  // The registry's kits: whole kit documents, each on lines of its own.
  void kits(const char* k, const KitRegistry& registry) {
    key(k) += "[\n";
    for (std::size_t i = 0; i < registry.size(); ++i) {
      if (i) out_ += ",\n";
      append_kit_json(out_, registry.kits()[i]);
    }
    out_ += ']';
  }

  // Appends the separator before a field and its key, growing `out_` once.
  std::string& key(std::string_view k) {
    std::string_view sep = layout_.indent > 0 ? ",\n" : ", ";
    if (written_++ == 0) sep.remove_prefix(layout_.indent > 0 ? 1 : 2);
    const std::size_t at = out_.size();
    out_.resize(at + sep.size() + layout_.indent + k.size() + 4);
    char* p = std::copy(sep.begin(), sep.end(), out_.data() + at);
    p = std::fill_n(p, layout_.indent, ' ');
    *p++ = '"';
    std::copy_n("\": ", 3, std::copy(k.begin(), k.end(), p));
    return out_;
  }

  std::string& out_;
  Layout layout_;
  std::size_t written_ = 0;
};

// ------------------------------------------------------------ key bytes

// Appends `v`'s object representation: fixed-width, so one field's bytes
// never run into the next one's.
template <class T>
void append_raw(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

// The kit as bytes rather than text: each double's bits, each string and
// array after its length, each enum as its underlying value.  Two kits get
// the same bytes exactly when the Writer gives them the same text, since
// %.17g tells every finite double apart (-0 from 0 too).  The Writer's
// non-finite refusal is kept.
struct KeyWriter {
  static constexpr bool kWrites = true;

  template <class T>
  static void object(std::string& out, const T& v) {
    KeyWriter w{out};
    fields(w, v);
  }
  static void object(std::string& out, const rf::QModel& q) {
    object(out, QFields{q.q_peak(), q.f_peak(), q.slope()});
  }

  void num(const char*, double v) {
    require(std::isfinite(v), "kit JSON: non-finite number cannot be serialized");
    append_raw(out_, v);
  }
  void str(const char*, const std::string& s) {
    append_raw(out_, s.size());
    out_ += s;
  }
  void boolean(const char*, bool b) { out_ += b ? '\1' : '\0'; }
  template <class E, std::size_t N>
  void token(const char*, E v, const Tokens<E, N>&) {
    append_raw(out_, static_cast<std::underlying_type_t<E>>(v));
  }
  template <class T> void obj(const char*, const T& v, Layout = {}) { object(out_, v); }
  template <class T> void array(const char*, const std::vector<T>& v, Layout = {}) {
    append_raw(out_, v.size());
    for (const T& e : v) object(out_, e);
  }
  void optional(const char* k, double v, double /*fallback*/) { num(k, v); }
  template <class T> void optional(const char* k, const std::vector<T>& v) { array(k, v); }

  std::string& out_;
};

// --------------------------------------------------------------- reading

ProcessKit read_kit_fields(JsonRef v);

struct Reader {
  static constexpr bool kWrites = false;

  // Reads object `r` into `v`; a key that fields() does not list is an error.
  template <class T>
  static void object(ObjectReader r, T& v) {
    Reader io{r};
    fields(io, v);
    r.done();
  }
  static void object(ObjectReader r, rf::QModel& q) {
    QFields f;
    object(r, f);
    // The shared QModel gate (kit_checks.hpp), validate_kit's own check: one
    // message and ErrorCode whichever door the kit came in.
    if (!(f.q_peak >= 0.0)) checks::check_qmodel_peak(f.q_peak, r.scope(), "");
    q = f.q_peak == 0.0 ? rf::QModel::lossless()
                        : rf::QModel::peaked(f.q_peak, f.f_peak, f.slope);
  }

  void num(const char* k, double& v) { v = r_.num(k); }
  void str(const char* k, std::string& s) { s = r_.str(k); }
  void boolean(const char* k, bool& b) { b = r_.boolean(k); }
  template <class E, std::size_t N>
  void token(const char* k, E& v, const Tokens<E, N>& tokens) {
    v = tokens.value(r_.get(k, JsonType::String).string());
  }
  template <class T> void obj(const char* k, T& v, Layout = {}) { object(r_.obj(k), v); }
  template <class T> void array(const char* k, std::vector<T>& v, Layout = {}) {
    elements(r_.arr(k), k, v);
  }
  void optional(const char* k, double& v, double fallback) { v = r_.num_or(k, fallback); }
  template <class T> void optional(const char* k, std::vector<T>& v) {
    if (const JsonRef a = r_.find(k, JsonType::Array)) elements(a, k, v);
  }

  // The registry's own keys are checked first; then each kit is read as a
  // document of its own (scope "kit") and added before the next is read.
  // KitRegistry::add validates it.
  void kits(const char* k, KitRegistry& registry) {
    const JsonRef kits = r_.arr(k);
    r_.done();
    for (const JsonRef kit : kits) registry.add(read_kit_fields(kit));
  }

  template <class T>
  void elements(JsonRef a, const char* k, std::vector<T>& v) {
    v.reserve(a.size());
    std::size_t i = 0;
    for (const JsonRef e : a) object(ObjectReader(e, r_, k, i++), v.emplace_back());
  }

  ObjectReader& r_;
};

ProcessKit read_kit_fields(JsonRef v) {
  ProcessKit kit;
  Reader::object(ObjectReader(v, "kit", kContext), kit);
  return kit;
}

ProcessKit read_kit(JsonRef v) {
  ProcessKit kit = read_kit_fields(v);
  validate_kit(kit);
  return kit;
}

}  // namespace

const char* kit_maturity_name(KitMaturity maturity) { return kMaturity.token(maturity); }

void append_kit_json(std::string& out, const ProcessKit& kit) {
  Writer::object(out, kit, Layout{4, 0});
  out += '\n';
}

void append_kit_key(std::string& out, const ProcessKit& kit) { KeyWriter::object(out, kit); }

std::string kit_json(const ProcessKit& kit) {
  std::string out;
  append_kit_json(out, kit);
  return out;
}

std::string registry_json(const KitRegistry& registry) {
  std::string out;
  Writer::object(out, registry, Layout{});
  out += '\n';
  return out;
}

ProcessKit parse_kit_json(const std::string& text) {
  return read_kit(JsonDocument(text, kContext).root());
}

ProcessKit parse_kit_json_value(JsonRef value) { return read_kit(value); }

KitRegistry parse_registry_json(const std::string& text) {
  const JsonDocument doc(text, kContext);
  KitRegistry registry;
  Reader::object(ObjectReader(doc.root(), "registry", kContext), registry);
  return registry;
}

}  // namespace ipass::kits
