// Step 2 of the methodology: "assess performance with regard to the
// specifications".
//
// Every filter of the functional BOM is realized in the build-up's style,
// simulated (MNA with technology Q models) or looked up (vendor blocks),
// and scored as the ratio of specified to calculated loss, capped at 1 --
// "percentages are derived from the relation of specified losses to
// calculated losses".  A build-up scores the minimum over its filters.
#pragma once

#include <string>
#include <vector>

#include "core/buildup.hpp"
#include "core/function_bom.hpp"
#include "core/realization.hpp"

namespace ipass::core {

struct FilterPerformance {
  std::string name;
  FilterStyle style = FilterStyle::SmdBlock;
  double il_spec_db = 0.0;
  double il_calc_db = 0.0;       // simulated (or vendor) midband loss
  double rejection_spec_db = 0.0;
  double rejection_calc_db = 0.0;  // relative rejection at the reject frequency
  double loss_score = 0.0;       // min(1, spec/calc)
  double rejection_score = 1.0;  // min(1, calc/spec), 1 when no rejection spec
  double score = 0.0;            // min of both
  bool meets_spec = false;
};

struct PerformanceResult {
  std::vector<FilterPerformance> filters;
  double score = 1.0;            // min over all filters
  std::string to_table() const;
};

// Assess one filter in a concrete style.
FilterPerformance assess_filter(const FilterSpec& spec, FilterStyle style,
                                const TechKits& kits);

// Assess the whole BOM under the build-up's policy.  With profiling on
// (metrics::set_profiling_enabled) each call's wall time lands in
// core_profile_mna_sweeps_ns, whichever caller ran it.
PerformanceResult assess_performance(const FunctionalBom& bom, const BuildUp& buildup,
                                     const TechKits& kits);

// Canonical bytes of exactly what assess_performance(bom, buildup, kits)
// reads, so equal keys mean bit-identical results (a cache of performance
// rows keys on it).  It holds the BOM's name, which stands in for the
// filter specs (a caller keys one BOM content per name), and the build-up's
// passive policy, each as a quoted JSON string.  When some filter is
// realized in an integrated style, it also holds the 8 bytes of each of the
// 14 numbers of the precision-capacitor Q model and the spiral-inductor
// process; a BOM realized wholly as catalog SMD blocks reads no kit field,
// so its key leaves them out.  Cost, area, substrate and production inputs
// never reach the MNA sweeps and never reach the key.
std::string performance_key(const FunctionalBom& bom, const BuildUp& buildup,
                            const TechKits& kits);

}  // namespace ipass::core
