// Build-up descriptions: the physical implementation alternatives the
// methodology compares (paper section 4.1), plus the per-build-up
// production data of Table 2.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "tech/die.hpp"
#include "tech/process.hpp"
#include "tech/smd.hpp"

namespace ipass::core {

// How passives are realized on the carrier.
enum class PassivePolicy {
  AllSmd,         // build-ups 1 and 2
  AllIntegrated,  // build-up 3
  Optimized,      // build-up 4: SMD wherever it is smaller or needed for
                  // performance, integrated otherwise
};

const char* passive_policy_name(PassivePolicy policy);

// How Table-2 step yields are interpreted when constructing the flow.
enum class YieldSemantics {
  PerStep,   // the quoted yield applies once per production step (default)
  PerJoint,  // the quoted yield applies per joint/placement
};

// One chiplet bonded onto the carrier beyond the paper's RF/DSP chip pair:
// the 2.5D multi-die extension after Chiplet Actuary (arXiv:2203.12268) and
// Tang & Xie (arXiv:2206.07308).  A die arrives with its own fab yield
// (latent Poisson faults), may be screened by a known-good-die test whose
// escape probability thins the intensity it carries into the stack, and
// amortizes its own reticle/mask NRE over the production volume.
struct DieSpec {
  std::string name;            // unique within one die list
  double cost = 0.0;           // purchased/fabbed die cost
  double yield = 1.0;          // incoming fab yield, in (0, 1]
  double kgd_test_cost = 0.0;  // known-good-die screen, per die
  double kgd_escape = 1.0;     // fraction of latent intensity the screen lets
                               // through (1 = no screen, 0 = perfect KGD)
  double nre = 0.0;            // die-specific mask/reticle NRE
};

// Ceiling on dies per carrier: the flow emitter sizes its fixed-size
// component lot arrays with this (see cost_assess.cpp), and validate_kit
// rejects longer lists with a named error.
inline constexpr std::size_t kMaxProductionDies = 8;

// One column of Table 2 plus the calibrated unpublished values
// (chip prices, intermediate functional test, NRE; see DESIGN.md §3).
struct ProductionData {
  // Chips ("chip cost is confidential" -- calibrated, see gps/chipset.cpp).
  double rf_chip_cost = 0.0;
  double rf_chip_yield = 1.0;
  double dsp_cost = 0.0;
  double dsp_yield = 1.0;

  // Assembly.
  double chip_assembly_cost = 0.0;    // per chip
  double chip_assembly_yield = 1.0;
  double wire_bond_cost = 0.0;        // per bond
  double wire_bond_yield = 1.0;
  double smd_assembly_cost = 0.0;     // per placement
  double smd_assembly_yield = 1.0;

  // Module-level functional test before packaging (Fig 4's "Functional
  // Test" ahead of "Mount on Laminate"); coverage 0 disables it.
  double functional_test_cost = 0.0;
  double functional_test_coverage = 0.0;

  // BGA laminate packaging; cost 0 disables the step.
  double packaging_cost = 0.0;
  double packaging_yield = 1.0;

  // Final test (Table 2: cost 10, fault coverage 99%).
  double final_test_cost = 10.0;
  double final_test_coverage = 0.99;

  double nre_total = 0.0;   // spread over the production volume (Eq. 1)
  double volume = 8007.0;   // started units (Fig 4: 7799 shipped + 208 scrap)

  // Multi-die chiplet/SiP extension.  Empty/neutral by default: a study
  // with no dies and these bonding defaults walks the exact pre-chiplet
  // flow, bit for bit (golden-pinned in tests/gps/golden/).
  double bond_cost = 0.0;   // per die attach (micro-bump bond + underfill)
  double bond_yield = 1.0;  // per attach, in (0, 1]; compounds by die count

  std::vector<DieSpec> dies;  // chiplets bonded onto the carrier

  YieldSemantics semantics = YieldSemantics::PerStep;
};

// NRE the study amortizes over the volume: the shared total plus every
// die's reticle share.  The accumulation order (total first, then dies in
// list order) is part of the bit contract between the analytic FlowModel
// path and the batched compiled epilogue — both call this helper.  With no dies
// the sum is pd.nre_total unchanged, to the bit.
inline double effective_nre(const ProductionData& pd) {
  double nre = pd.nre_total;
  for (const DieSpec& d : pd.dies) nre += d.nre;
  return nre;
}

// ---------------------------------------------------------------------------
// Field tables: every scalar field of ProductionData / DieSpec with its
// corner-scaling role.  kits::fleet's corner_production() iterates these
// instead of a hand-enumerated list, so a scenario corner can never
// silently skip a field.  Roles:
//   Cost     — multiplied by the corner's cost_scale
//   Yield    — raised to the corner's fault_scale (lambda = -ln y scaling)
//   Coverage — a probability, untouched by corners
//   Nre      — scenario overhead, untouched by corners
//   Volume   — the scenario axis itself (overridden per point)
// Adding a member to either struct without adding a table entry (or
// bumping the non-scalar count below) fails the static_asserts under the
// tables — that is the completeness guard.
// clang-format off
#define IPASS_PRODUCTION_SCALAR_FIELDS(X) \
  X(rf_chip_cost,             Cost)       \
  X(rf_chip_yield,            Yield)      \
  X(dsp_cost,                 Cost)       \
  X(dsp_yield,                Yield)      \
  X(chip_assembly_cost,       Cost)       \
  X(chip_assembly_yield,      Yield)      \
  X(wire_bond_cost,           Cost)       \
  X(wire_bond_yield,          Yield)      \
  X(smd_assembly_cost,        Cost)       \
  X(smd_assembly_yield,       Yield)      \
  X(functional_test_cost,     Cost)       \
  X(functional_test_coverage, Coverage)   \
  X(packaging_cost,           Cost)       \
  X(packaging_yield,          Yield)      \
  X(final_test_cost,          Cost)       \
  X(final_test_coverage,      Coverage)   \
  X(nre_total,                Nre)        \
  X(volume,                   Volume)     \
  X(bond_cost,                Cost)       \
  X(bond_yield,               Yield)

#define IPASS_DIE_SCALAR_FIELDS(X) \
  X(cost,          Cost)           \
  X(yield,         Yield)          \
  X(kgd_test_cost, Cost)           \
  X(kgd_escape,    Coverage)       \
  X(nre,           Nre)
// clang-format on

namespace detail {

// Aggregate-field counting (C++17): probe how many braced initializers the
// aggregate accepts.  AnyField converts to any member type, so the largest
// N with T{AnyField..., AnyField} well-formed is the member count.
struct AnyField {
  template <class T>
  operator T() const;
};

template <class T, class... Probes>
constexpr auto braces_accept(int) -> decltype(T{std::declval<Probes>()...}, true) {
  return true;
}
template <class T, class...>
constexpr bool braces_accept(...) {
  return false;
}

template <class T, class... Probes>
constexpr std::size_t aggregate_field_count() {
  if constexpr (braces_accept<T, Probes..., AnyField>(0)) {
    return aggregate_field_count<T, Probes..., AnyField>();
  } else {
    return sizeof...(Probes);
  }
}

}  // namespace detail

#define IPASS_COUNT_FIELD(name, role) +1u
// ProductionData: the scalar table plus `dies` and `semantics`.
static_assert(detail::aggregate_field_count<ProductionData>() ==
                  (0u IPASS_PRODUCTION_SCALAR_FIELDS(IPASS_COUNT_FIELD)) + 2u,
              "ProductionData gained a member that is missing from "
              "IPASS_PRODUCTION_SCALAR_FIELDS (or the non-scalar count): add "
              "it to the table with its corner-scaling role so corner_production "
              "and validate_kit cannot silently skip it");
// DieSpec: the scalar table plus `name`.
static_assert(detail::aggregate_field_count<DieSpec>() ==
                  (0u IPASS_DIE_SCALAR_FIELDS(IPASS_COUNT_FIELD)) + 1u,
              "DieSpec gained a member that is missing from "
              "IPASS_DIE_SCALAR_FIELDS: add it to the table with its "
              "corner-scaling role");
#undef IPASS_COUNT_FIELD

struct BuildUp {
  int index = 0;            // 1..4 in the paper
  std::string name;
  tech::SubstrateTechnology substrate;
  tech::DieAttach die_attach = tech::DieAttach::PackagedSmt;
  PassivePolicy policy = PassivePolicy::AllSmd;
  tech::PartsGrade parts_grade = tech::PartsGrade::PcbLine;
  bool uses_laminate = false;     // silicon substrate packaged onto a BGA laminate
  bool smd_on_laminate = false;   // SMDs mounted on the laminate, not the Si
  ProductionData production;
};

}  // namespace ipass::core
