// Soundness of core::performance_key: perturb every field of TechKits and
// of BuildUp, one at a time, and require that whenever assess_performance's
// result changes in any bit, the key changes too.  The reverse direction
// (the key changes, the result does not) is allowed only for the fields
// listed in kOverKeyed, each with its reason.  The cost-only edits a what-if
// study makes to a kit must leave every key unchanged.
#include "core/perf_assess.hpp"

#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gps/casestudy.hpp"
#include "kits/registry.hpp"

namespace ipass::core {
namespace {

// Every field below is perturbed by name; a struct that gains a member
// fails here until the new field gets its perturbation.
static_assert(detail::aggregate_field_count<TechKits>() == 8);
static_assert(detail::aggregate_field_count<BuildUp>() == 9);
static_assert(detail::aggregate_field_count<tech::ResistorProcess>() == 6);
static_assert(detail::aggregate_field_count<tech::CapacitorProcess>() == 4);
static_assert(detail::aggregate_field_count<tech::SpiralInductorProcess>() == 11);
static_assert(detail::aggregate_field_count<tech::DieSpec>() == 6);
static_assert(detail::aggregate_field_count<tech::SubstrateTechnology>() == 8);

// Key changes that do not change the result, and why that is acceptable.
const std::set<std::string> kOverKeyed = {
    // The built-in Si3N4 model is a constant Q (slope 0), which ignores its
    // peak frequency; the key holds all three QModel fields so a peaked
    // model's frequency is never missed.
    "kits.precision_cap.quality.f_peak",
    // Sizes the spiral's keep-out ring: area only, never its Q model.  The
    // key holds the whole spiral process so no future Q input can be missed.
    "kits.spiral.guard_clearance_um",
};

struct Perturbation {
  std::string field;
  std::function<void(TechKits&, BuildUp&)> apply;
};

double nudged(double v) { return v * 1.25 + 0.125; }

std::vector<Perturbation> every_field() {
  std::vector<Perturbation> out;
  const auto add = [&](std::string field, std::function<void(TechKits&, BuildUp&)> fn) {
    out.push_back(Perturbation{std::move(field), std::move(fn)});
  };
#define IPASS_KIT_DOUBLE(path) \
  add("kits." #path, [](TechKits& k, BuildUp&) { k.path = nudged(k.path); })
  IPASS_KIT_DOUBLE(resistor_process.sheet_ohm_sq);
  IPASS_KIT_DOUBLE(resistor_process.line_width_um);
  IPASS_KIT_DOUBLE(resistor_process.meander_pitch_factor);
  IPASS_KIT_DOUBLE(resistor_process.contact_pad_area_mm2);
  IPASS_KIT_DOUBLE(resistor_process.tolerance);
  IPASS_KIT_DOUBLE(resistor_process.trimmed_tolerance);
  for (const auto& [cap, label] :
       {std::pair{&TechKits::precision_cap, "kits.precision_cap"},
        std::pair{&TechKits::decap_cap, "kits.decap_cap"}}) {
    const std::string p = label;
    add(p + ".dielectric", [cap = cap](TechKits& k, BuildUp&) {
      tech::Dielectric& d = (k.*cap).dielectric;
      d = d == tech::Dielectric::SiliconNitride ? tech::Dielectric::BariumTitanate
                                                : tech::Dielectric::SiliconNitride;
    });
    add(p + ".density_pf_mm2", [cap = cap](TechKits& k, BuildUp&) {
      (k.*cap).density_pf_mm2 = nudged((k.*cap).density_pf_mm2);
    });
    add(p + ".terminal_overhead_mm2", [cap = cap](TechKits& k, BuildUp&) {
      (k.*cap).terminal_overhead_mm2 = nudged((k.*cap).terminal_overhead_mm2);
    });
    add(p + ".quality.q_peak", [cap = cap](TechKits& k, BuildUp&) {
      const rf::QModel q = (k.*cap).quality;
      (k.*cap).quality = rf::QModel::peaked(nudged(q.q_peak()), q.f_peak(), q.slope());
    });
    add(p + ".quality.f_peak", [cap = cap](TechKits& k, BuildUp&) {
      const rf::QModel q = (k.*cap).quality;
      (k.*cap).quality = rf::QModel::peaked(q.q_peak(), nudged(q.f_peak()), q.slope());
    });
    add(p + ".quality.slope", [cap = cap](TechKits& k, BuildUp&) {
      const rf::QModel q = (k.*cap).quality;
      (k.*cap).quality = rf::QModel::peaked(q.q_peak(), q.f_peak(), nudged(q.slope()));
    });
  }
  IPASS_KIT_DOUBLE(spiral.line_width_um);
  IPASS_KIT_DOUBLE(spiral.line_spacing_um);
  IPASS_KIT_DOUBLE(spiral.metal_sheet_ohm_sq);
  add("kits.spiral.fill_ratio",
      [](TechKits& k, BuildUp&) { k.spiral.fill_ratio *= 1.25; });  // stays < 1
  IPASS_KIT_DOUBLE(spiral.guard_clearance_um);
  IPASS_KIT_DOUBLE(spiral.wheeler_k1);
  IPASS_KIT_DOUBLE(spiral.wheeler_k2);
  IPASS_KIT_DOUBLE(spiral.substrate_q_factor);
  add("kits.spiral.max_q_peak",  // lowered so the ceiling binds
      [](TechKits& k, BuildUp&) { k.spiral.max_q_peak *= 0.5; });
  IPASS_KIT_DOUBLE(spiral.q_peak_freq_hz);
  IPASS_KIT_DOUBLE(spiral.q_slope);
  for (const auto& [die, label] : {std::pair{&TechKits::rf_die, "kits.rf_die"},
                                    std::pair{&TechKits::dsp_die, "kits.dsp_die"}}) {
    const std::string p = label;
    add(p + ".name", [die = die](TechKits& k, BuildUp&) { (k.*die).name += "-x"; });
    add(p + ".flip_chip_area_mm2", [die = die](TechKits& k, BuildUp&) {
      (k.*die).flip_chip_area_mm2 = nudged((k.*die).flip_chip_area_mm2);
    });
    add(p + ".package_area_mm2", [die = die](TechKits& k, BuildUp&) {
      (k.*die).package_area_mm2 = nudged((k.*die).package_area_mm2);
    });
    add(p + ".package_name",
        [die = die](TechKits& k, BuildUp&) { (k.*die).package_name += "-x"; });
    add(p + ".pad_count", [die = die](TechKits& k, BuildUp&) { (k.*die).pad_count += 7; });
    add(p + ".wb_fanout_mm", [die = die](TechKits& k, BuildUp&) {
      (k.*die).wb_fanout_mm = nudged((k.*die).wb_fanout_mm);
    });
  }
  IPASS_KIT_DOUBLE(integrated_filter_overhead);
  IPASS_KIT_DOUBLE(integrated_filter_spacing_mm2);
#undef IPASS_KIT_DOUBLE

  add("buildup.index", [](TechKits&, BuildUp& b) { b.index += 10; });
  add("buildup.name", [](TechKits&, BuildUp& b) { b.name += "-x"; });
  add("buildup.substrate.name", [](TechKits&, BuildUp& b) { b.substrate.name += "-x"; });
  add("buildup.substrate.kind", [](TechKits&, BuildUp& b) {
    b.substrate.kind = b.substrate.kind == tech::SubstrateKind::Ltcc
                           ? tech::SubstrateKind::Pcb
                           : tech::SubstrateKind::Ltcc;
  });
#define IPASS_SUBSTRATE_DOUBLE(field)           \
  add("buildup.substrate." #field, [](TechKits&, BuildUp& b) { \
    b.substrate.field = nudged(b.substrate.field);              \
  })
  IPASS_SUBSTRATE_DOUBLE(cost_per_cm2);
  IPASS_SUBSTRATE_DOUBLE(fab_yield);
  IPASS_SUBSTRATE_DOUBLE(routing_overhead);
  IPASS_SUBSTRATE_DOUBLE(edge_clearance_mm);
#undef IPASS_SUBSTRATE_DOUBLE
  add("buildup.substrate.supports_integrated_passives", [](TechKits&, BuildUp& b) {
    b.substrate.supports_integrated_passives = !b.substrate.supports_integrated_passives;
  });
  add("buildup.substrate.double_sided", [](TechKits&, BuildUp& b) {
    b.substrate.double_sided = !b.substrate.double_sided;
  });
  add("buildup.die_attach", [](TechKits&, BuildUp& b) {
    b.die_attach = b.die_attach == tech::DieAttach::FlipChip ? tech::DieAttach::WireBond
                                                             : tech::DieAttach::FlipChip;
  });
  add("buildup.policy", [](TechKits&, BuildUp& b) {
    b.policy = b.policy == PassivePolicy::AllSmd ? PassivePolicy::AllIntegrated
               : b.policy == PassivePolicy::AllIntegrated ? PassivePolicy::Optimized
                                                          : PassivePolicy::AllSmd;
  });
  add("buildup.parts_grade", [](TechKits&, BuildUp& b) {
    b.parts_grade = b.parts_grade == tech::PartsGrade::PcbLine ? tech::PartsGrade::McmLine
                                                               : tech::PartsGrade::PcbLine;
  });
  add("buildup.uses_laminate", [](TechKits&, BuildUp& b) { b.uses_laminate = !b.uses_laminate; });
  add("buildup.smd_on_laminate",
      [](TechKits&, BuildUp& b) { b.smd_on_laminate = !b.smd_on_laminate; });
#define IPASS_PRODUCTION_FIELD(name, role)                   \
  add("buildup.production." #name, [](TechKits&, BuildUp& b) { \
    b.production.name = nudged(b.production.name);             \
  });
  IPASS_PRODUCTION_SCALAR_FIELDS(IPASS_PRODUCTION_FIELD)
#undef IPASS_PRODUCTION_FIELD
  add("buildup.production.dies", [](TechKits&, BuildUp& b) {
    b.production.dies.push_back(DieSpec{"chiplet", 12.0, 0.97, 0.5, 0.1, 2000.0});
  });
  add("buildup.production.semantics", [](TechKits&, BuildUp& b) {
    b.production.semantics = b.production.semantics == YieldSemantics::PerStep
                                 ? YieldSemantics::PerJoint
                                 : YieldSemantics::PerStep;
  });
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool bit_identical(const PerformanceResult& a, const PerformanceResult& b) {
  if (!same_bits(a.score, b.score) || a.filters.size() != b.filters.size()) return false;
  for (std::size_t i = 0; i < a.filters.size(); ++i) {
    const FilterPerformance& x = a.filters[i];
    const FilterPerformance& y = b.filters[i];
    if (x.name != y.name || x.style != y.style || x.meets_spec != y.meets_spec ||
        !same_bits(x.il_spec_db, y.il_spec_db) || !same_bits(x.il_calc_db, y.il_calc_db) ||
        !same_bits(x.rejection_spec_db, y.rejection_spec_db) ||
        !same_bits(x.rejection_calc_db, y.rejection_calc_db) ||
        !same_bits(x.loss_score, y.loss_score) ||
        !same_bits(x.rejection_score, y.rejection_score) || !same_bits(x.score, y.score)) {
      return false;
    }
  }
  return true;
}

TEST(PerformanceKey, ChangesWheneverTheResultChanges) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const std::vector<Perturbation> perturbations = every_field();
  std::set<std::string> over_keyed_seen;
  for (const BuildUp& base : study.buildups) {
    const PerformanceResult r0 = assess_performance(study.bom, base, study.kits);
    const std::string k0 = performance_key(study.bom, base, study.kits);
    for (const Perturbation& p : perturbations) {
      TechKits kits = study.kits;
      BuildUp buildup = base;
      p.apply(kits, buildup);
      const bool result_changed =
          !bit_identical(assess_performance(study.bom, buildup, kits), r0);
      const bool key_changed = performance_key(study.bom, buildup, kits) != k0;
      if (result_changed) {
        EXPECT_TRUE(key_changed) << p.field << " changes " << base.name
                                 << "'s performance but not its key";
      } else if (key_changed) {
        EXPECT_EQ(kOverKeyed.count(p.field), 1U)
            << p.field << " changes " << base.name
            << "'s key but not its performance: list it in kOverKeyed with the reason";
        over_keyed_seen.insert(p.field);
      }
    }
  }
  // The list carries no stale entries.
  EXPECT_EQ(over_keyed_seen, kOverKeyed);
}

TEST(PerformanceKey, IntegratedRowsReadTheKitAllSmdRowsDoNot) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  TechKits other = study.kits;
  other.spiral.q_slope = nudged(other.spiral.q_slope);
  for (const BuildUp& b : study.buildups) {
    const bool all_smd = b.policy == PassivePolicy::AllSmd;
    EXPECT_EQ(performance_key(study.bom, b, study.kits) ==
                  performance_key(study.bom, b, other),
              all_smd)
        << b.name;
  }
  // Two all-SMD build-ups on different carriers share one row.
  EXPECT_EQ(study.buildups[0].policy, PassivePolicy::AllSmd);
  EXPECT_EQ(study.buildups[1].policy, PassivePolicy::AllSmd);
  EXPECT_EQ(performance_key(study.bom, study.buildups[0], study.kits),
            performance_key(study.bom, study.buildups[1], study.kits));
}

// The edits a cost what-if makes to a kit — the ones the serve-churn
// benchmark's inline variants make — never reach the key.
TEST(PerformanceKey, CostOnlyKitEditsKeepEveryKey) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  const std::vector<std::function<void(kits::ProcessKit&)>> edits = {
      [](kits::ProcessKit& k) { k.substrate.cost_per_cm2 *= 1.17; },
      [](kits::ProcessKit& k) { k.passives.integrated_filter_overhead *= 1.03; },
      [](kits::ProcessKit& k) { k.corner.cost_scale *= 1.09; },
      [](kits::ProcessKit& k) {
        for (kits::KitVariant& v : k.variants) v.production.chip_assembly_cost *= 0.85;
      },
      [](kits::ProcessKit& k) {
        for (kits::KitVariant& v : k.variants) v.production.nre_total *= 1.15;
      },
      [](kits::ProcessKit& k) {
        k.name += "-variant";
        k.version += ".1";
      },
  };
  for (const std::string& name : registry.names()) {
    const kits::ProcessKit& base = registry.at(name);
    const TechKits tech = kits::apply_passives(base);
    const std::vector<BuildUp> buildups = kits::make_buildups(base);
    for (std::size_t e = 0; e < edits.size(); ++e) {
      kits::ProcessKit edited = base;
      edits[e](edited);
      const TechKits edited_tech = kits::apply_passives(edited);
      const std::vector<BuildUp> edited_buildups = kits::make_buildups(edited);
      ASSERT_EQ(edited_buildups.size(), buildups.size());
      for (std::size_t b = 0; b < buildups.size(); ++b) {
        EXPECT_EQ(performance_key(study.bom, edited_buildups[b], edited_tech),
                  performance_key(study.bom, buildups[b], tech))
            << name << " edit " << e << " build-up " << b;
      }
    }
  }
}

}  // namespace
}  // namespace ipass::core
