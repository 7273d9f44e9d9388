#include "kits/process_kit.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "kits/kit_checks.hpp"

namespace ipass::kits {

namespace {

// The shared check vocabulary (kits/kit_checks.hpp): one message shape,
// "kit 'name': field ...", used by this validator and the kit-JSON loader
// alike, so a rejected kit always says which kit and which field broke the
// contract no matter which door it came in.
using checks::check;
using checks::check_coverage;
using checks::check_cost;
using checks::check_positive;
using checks::check_qmodel_peak;
using checks::check_scale;
using checks::check_yield;

// `scope` names the kit and variant ("ltcc-ceramic/LTCC-IP").
void validate_production(const core::ProductionData& pd, const std::string& scope) {
  // Every scalar field via the completeness-guarded table — a new
  // ProductionData member cannot dodge validation without failing the
  // static_assert in core/buildup.hpp.
  const checks::ScalarFieldChecker field{scope, "production."};
#define IPASS_CHECK_FIELD(name, role) field.role(pd.name, #name);
  IPASS_PRODUCTION_SCALAR_FIELDS(IPASS_CHECK_FIELD)
#undef IPASS_CHECK_FIELD

  // The die list (multi-die chiplet extension).
  check(pd.dies.size() <= core::kMaxProductionDies, scope, "production.dies",
        "must not list more dies than the supported maximum (8)");
  for (std::size_t i = 0; i < pd.dies.size(); ++i) {
    const core::DieSpec& d = pd.dies[i];
    const checks::ScalarFieldChecker die_field{scope,
                                               strf("production.dies[%zu].", i)};
    check(!d.name.empty(), scope, die_field.label("name"), "must not be empty");
#define IPASS_CHECK_FIELD(name, role) die_field.role(d.name, #name);
    IPASS_DIE_SCALAR_FIELDS(IPASS_CHECK_FIELD)
#undef IPASS_CHECK_FIELD
    for (std::size_t j = 0; j < i; ++j) {
      if (pd.dies[j].name == d.name) {
        checks::fail(scope, "production.dies",
                     strf("has duplicate die name '%s'", d.name.c_str()));
      }
    }
  }
}

}  // namespace

void validate_kit(const ProcessKit& kit) {
  require(!kit.name.empty(), "process kit: name must not be empty");
  check(!kit.variants.empty(), kit.name, "variants", "must offer at least one variant");

  check_cost(kit.substrate.cost_per_cm2, kit.name, "substrate.cost_per_cm2");
  check_yield(kit.substrate.fab_yield, kit.name, "substrate.fab_yield");
  check(kit.substrate.routing_overhead >= 1.0 && std::isfinite(kit.substrate.routing_overhead),
        kit.name, "substrate.routing_overhead", "must be finite and >= 1");
  check_scale(kit.substrate.edge_clearance_mm, kit.name, "substrate.edge_clearance_mm");

  {
    const KitPassives& p = kit.passives;
    check_positive(p.resistor.sheet_ohm_sq, kit.name, "passives.resistor.sheet_ohm_sq");
    check_positive(p.resistor.line_width_um, kit.name, "passives.resistor.line_width_um");
    check_positive(p.resistor.meander_pitch_factor, kit.name,
                   "passives.resistor.meander_pitch_factor");
    check_scale(p.resistor.contact_pad_area_mm2, kit.name,
                "passives.resistor.contact_pad_area_mm2");
    check_scale(p.resistor.tolerance, kit.name, "passives.resistor.tolerance");
    check_scale(p.resistor.trimmed_tolerance, kit.name,
                "passives.resistor.trimmed_tolerance");
    check_positive(p.precision_cap.density_pf_mm2, kit.name,
                   "passives.precision_cap.density_pf_mm2");
    check_scale(p.precision_cap.terminal_overhead_mm2, kit.name,
                "passives.precision_cap.terminal_overhead_mm2");
    check_positive(p.decap_cap.density_pf_mm2, kit.name,
                   "passives.decap_cap.density_pf_mm2");
    check_scale(p.decap_cap.terminal_overhead_mm2, kit.name,
                "passives.decap_cap.terminal_overhead_mm2");
    // Capacitor QModels: the same gate the kit-JSON loader applies before
    // constructing the rf::QModel (see kit_checks.hpp), so the two doors
    // cannot drift apart again.
    check_qmodel_peak(p.precision_cap.quality.q_peak(), kit.name,
                      "passives.precision_cap.quality.");
    check_qmodel_peak(p.decap_cap.quality.q_peak(), kit.name,
                      "passives.decap_cap.quality.");
    check_positive(p.spiral.line_width_um, kit.name, "passives.spiral.line_width_um");
    check_scale(p.spiral.line_spacing_um, kit.name, "passives.spiral.line_spacing_um");
    check_positive(p.spiral.metal_sheet_ohm_sq, kit.name,
                   "passives.spiral.metal_sheet_ohm_sq");
    check(p.spiral.fill_ratio > 0.0 && p.spiral.fill_ratio < 1.0, kit.name,
          "passives.spiral.fill_ratio", "must be in (0, 1)");
    check_scale(p.spiral.guard_clearance_um, kit.name,
                "passives.spiral.guard_clearance_um");
    check_positive(p.spiral.wheeler_k1, kit.name, "passives.spiral.wheeler_k1");
    check_positive(p.spiral.wheeler_k2, kit.name, "passives.spiral.wheeler_k2");
    check(p.spiral.substrate_q_factor > 0.0 && p.spiral.substrate_q_factor <= 1.0,
          kit.name, "passives.spiral.substrate_q_factor", "must be in (0, 1]");
    check_positive(p.spiral.max_q_peak, kit.name, "passives.spiral.max_q_peak");
    check_positive(p.spiral.q_peak_freq_hz, kit.name, "passives.spiral.q_peak_freq_hz");
    check_scale(p.spiral.q_slope, kit.name, "passives.spiral.q_slope");
    check(p.integrated_filter_overhead >= 1.0 && std::isfinite(p.integrated_filter_overhead),
          kit.name, "passives.integrated_filter_overhead", "must be finite and >= 1");
    check_scale(p.integrated_filter_spacing_mm2, kit.name,
                "passives.integrated_filter_spacing_mm2");
  }

  check_scale(kit.corner.fault_scale, kit.name, "corner.fault_scale");
  check_scale(kit.corner.cost_scale, kit.name, "corner.cost_scale");

  for (const KitVariant& v : kit.variants) {
    check(!v.name.empty(), kit.name, "variant.name", "must not be empty");
    const std::string scope = strf("%s/%s", kit.name.c_str(), v.name.c_str());
    check(v.policy == core::PassivePolicy::AllSmd || kit.substrate.supports_integrated_passives,
          scope, "policy", "needs integrated passives the substrate cannot host");
    // Without a laminate there is nowhere to mount laminate-side SMDs.
    // The flow emitter refuses such a build-up too; checking here names the
    // kit and variant at load time.
    check(!v.smd_on_laminate || v.uses_laminate, scope, "smd_on_laminate",
          "requires uses_laminate");
    validate_production(v.production, scope);
  }
}

core::TechKits apply_passives(const ProcessKit& kit, core::TechKits base) {
  base.resistor_process = kit.passives.resistor;
  base.precision_cap = kit.passives.precision_cap;
  base.decap_cap = kit.passives.decap_cap;
  base.spiral = kit.passives.spiral;
  base.integrated_filter_overhead = kit.passives.integrated_filter_overhead;
  base.integrated_filter_spacing_mm2 = kit.passives.integrated_filter_spacing_mm2;
  return base;
}

core::BuildUp make_buildup(const ProcessKit& kit, const KitVariant& variant, int index) {
  core::BuildUp b;
  b.index = index;
  b.name = variant.name;
  b.substrate = kit.substrate;
  b.die_attach = variant.die_attach;
  b.policy = variant.policy;
  b.parts_grade = variant.parts_grade;
  b.uses_laminate = variant.uses_laminate;
  b.smd_on_laminate = variant.smd_on_laminate;
  b.production = variant.production;
  return b;
}

std::vector<core::BuildUp> make_buildups(const ProcessKit& kit, int first_index) {
  validate_kit(kit);
  std::vector<core::BuildUp> out;
  out.reserve(kit.variants.size());
  for (const KitVariant& v : kit.variants) {
    out.push_back(make_buildup(kit, v, first_index++));
  }
  return out;
}

}  // namespace ipass::kits
