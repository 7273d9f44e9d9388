// Realize a functional BOM under a build-up's passive policy: every
// function becomes concrete component instances with areas, prices and a
// mounting style.  This is where the "passives optimized" rule lives:
// "in case SMD components consume less area than integrated passives, the
// SMD component is preferred".
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/buildup.hpp"
#include "core/function_bom.hpp"
#include "layout/area_report.hpp"
#include "rf/netlist.hpp"
#include "tech/die.hpp"
#include "tech/thin_film.hpp"

namespace ipass::core {

// Technology kits shared by all build-ups of a study.
struct TechKits {
  tech::ResistorProcess resistor_process = tech::crsi_resistor_process();
  tech::CapacitorProcess precision_cap = tech::si3n4_capacitor_process();
  tech::CapacitorProcess decap_cap = tech::batio_capacitor_process();
  tech::SpiralInductorProcess spiral = tech::summit_spiral_process();
  tech::DieSpec rf_die = tech::gps_rf_chip();
  tech::DieSpec dsp_die = tech::gps_dsp_correlator();
  // Area multiplier of integrated filters over the bare element sum
  // (isolation rings, internal routing; calibrated so the 3-stage RF filter
  // lands at Table 1's 12 mm^2).
  double integrated_filter_overhead = 3.75;
  double integrated_filter_spacing_mm2 = 0.15;  // per element
};

enum class Mount { Smd, Integrated, Die };

const char* mount_name(Mount mount);

struct ComponentInstance {
  std::string name;
  Mount mount = Mount::Smd;
  layout::AreaCategory area_category = layout::AreaCategory::Passives;
  double area_mm2 = 0.0;   // per part
  double unit_price = 0.0; // purchase price per part (0 when integrated)
  int count = 1;
};

// How a filter function got realized.
enum class FilterStyle { SmdBlock, Integrated, Hybrid };

const char* filter_style_name(FilterStyle style);

struct RealizedFilter {
  FilterSpec spec;
  FilterStyle style = FilterStyle::SmdBlock;
  double area_mm2 = 0.0;          // substrate area of one filter (all parts)
  int smd_inductors_per_filter = 0;  // hybrid only
};

struct RealizedBom {
  std::vector<ComponentInstance> components;
  std::vector<RealizedFilter> filters;

  int smd_placement_count() const;        // parts needing SMD assembly
  double smd_parts_cost() const;          // purchase cost of those parts
  double area_mm2(Mount mount) const;     // total area by mounting style
  double total_component_area_mm2() const;
  layout::AreaBreakdown breakdown() const;
};

// Decide the realization style of a filter under a policy.
FilterStyle filter_style_for(const FilterSpec& spec, PassivePolicy policy);

// How many filter specs' lossless ladders the process keeps.  A filter's
// ladder (rf::realize_bandpass of its prototype) depends on its spec alone
// — family, order, ripple, selectivity, f0, bandwidth and z0 — never on the
// kit, so it is synthesized once per spec and shared by every kit, style
// and thread; past this many specs the oldest is synthesized again when
// next asked for.  Results are bit-identical either way.
inline constexpr std::size_t kLadderMemoCapacity = 32;

// Synthesize the electrical circuit of a filter in the given style, with
// technology-appropriate Q on every element (SMD block style is not
// synthesizable and is rejected): a copy of the spec's lossless ladder
// with the kit's Q models assigned.
rf::Circuit synthesize_filter(const FilterSpec& spec, FilterStyle style,
                              const TechKits& kits);

// Substrate area of one integrated or hybrid filter (integrated part only
// for hybrid; the SMD inductors are accounted as separate instances).
// Reads the spec's lossless ladder in place.
double integrated_filter_area_mm2(const FilterSpec& spec, FilterStyle style,
                                  const TechKits& kits);

// Full realization.
RealizedBom realize_bom(const FunctionalBom& bom, const BuildUp& buildup,
                        const TechKits& kits);

}  // namespace ipass::core
