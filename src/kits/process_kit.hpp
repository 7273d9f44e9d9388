// Declarative process-kit descriptors: everything a carrier backend needs
// to plug into the assessment methodology, as data.
//
// The paper compares exactly three build-up technologies, but nothing in
// the methodology is specific to them — a backend is a substrate
// technology, the integrated-passive processes its line offers, the
// assembly variants it supports (each with default production cost/yield
// data), and a process corner describing how far the line sits from the
// nominal fault/cost assumptions.  A ProcessKit bundles all of that plus
// metadata (name/version/maturity), so new carriers are registry entries
// or JSON documents instead of hand-coded case-study mutations.
#pragma once

#include <string>
#include <vector>

#include "core/buildup.hpp"
#include "core/cost_assess.hpp"
#include "core/realization.hpp"
#include "tech/process.hpp"
#include "tech/thin_film.hpp"

namespace ipass::kits {

// How production-hardened the line behind a kit is.  Informational for the
// fleet reports; corner scalings carry the quantitative part.
enum class KitMaturity { Experimental, Pilot, Production, Mature };

// Its token in kit documents (kit_json.cpp holds the one token table).
const char* kit_maturity_name(KitMaturity maturity);

// The integrated-passive processes a kit ships: the carrier-specific slice
// of core::TechKits.  Product-level inputs (the die specs) stay with the
// study — a kit describes the line, not the chip set running on it.
struct KitPassives {
  tech::ResistorProcess resistor = tech::crsi_resistor_process();
  tech::CapacitorProcess precision_cap = tech::si3n4_capacitor_process();
  tech::CapacitorProcess decap_cap = tech::batio_capacitor_process();
  tech::SpiralInductorProcess spiral = tech::summit_spiral_process();
  double integrated_filter_overhead = 3.75;
  double integrated_filter_spacing_mm2 = 0.15;
};

// One assembly variant the kit's line offers (a kit may offer several —
// the paper's MCM-D(Si)+IP line builds both the fully integrated and the
// passives-optimized module).  Each variant carries its own default
// production data; a fleet sweep can override volume and corner per point.
struct KitVariant {
  std::string name;  // build-up display name, e.g. "MCM-D(Si)/FC/IP"
  core::PassivePolicy policy = core::PassivePolicy::AllSmd;
  tech::DieAttach die_attach = tech::DieAttach::PackagedSmt;
  tech::PartsGrade parts_grade = tech::PartsGrade::PcbLine;
  bool uses_laminate = false;
  bool smd_on_laminate = false;
  core::ProductionData production;
};

struct ProcessKit {
  std::string name;     // unique registry key, e.g. "ltcc-ceramic"
  std::string version;  // free-form line revision, e.g. "2001.1"
  KitMaturity maturity = KitMaturity::Production;
  std::string notes;    // provenance / free-form metadata
  tech::SubstrateTechnology substrate;
  KitPassives passives;
  // Where the line sits relative to the nominal fault/cost assumptions
  // (multiplicative, see core::ProcessCorner).  A pilot line might carry
  // {1.5, 1.2}; sweeps compose this baseline with the grid's corner axis.
  core::ProcessCorner corner;
  std::vector<KitVariant> variants;
};

// Contract check: throws PreconditionError with a message naming the kit
// and the offending field when a yield is outside (0, 1], a coverage is
// outside [0, 1], a cost is negative, a corner scale is negative, the kit
// has no name or no variants, or a variant needs integrated passives the
// substrate cannot host.
void validate_kit(const ProcessKit& kit);

// Merge the kit's passive processes into a study's TechKits (die specs and
// any other product-level fields of `base` are preserved).
core::TechKits apply_passives(const ProcessKit& kit, core::TechKits base = {});

// Realize one variant as a core::BuildUp with the given 1-based index.
core::BuildUp make_buildup(const ProcessKit& kit, const KitVariant& variant, int index);

// All variants of one kit, indexed from `first_index`.
std::vector<core::BuildUp> make_buildups(const ProcessKit& kit, int first_index = 1);

}  // namespace ipass::kits
