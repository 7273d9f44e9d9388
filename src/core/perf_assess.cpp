#include "core/perf_assess.hpp"

#include <algorithm>
#include <cstring>
#include <initializer_list>

#include "common/error.hpp"
#include "common/jsonfmt.hpp"
#include "common/metrics.hpp"
#include "common/strfmt.hpp"
#include "common/table.hpp"
#include "rf/analysis.hpp"

namespace ipass::core {

// performance_key spells out every field of these two; a new member must
// be added to the key (or shown not to reach assess_performance).
static_assert(detail::aggregate_field_count<tech::SpiralInductorProcess>() == 11,
              "SpiralInductorProcess changed: update performance_key");
static_assert(sizeof(rf::QModel) == 3 * sizeof(double),
              "QModel changed: update performance_key");

FilterPerformance assess_filter(const FilterSpec& spec, FilterStyle style,
                                const TechKits& kits) {
  FilterPerformance p;
  p.name = spec.name;
  p.style = style;
  p.il_spec_db = spec.max_il_db;
  p.rejection_spec_db = spec.rejection.min_db;

  if (style == FilterStyle::SmdBlock) {
    p.il_calc_db = spec.smd_block.insertion_loss_db;
    p.rejection_calc_db = spec.smd_block.rejection_db;
  } else {
    const rf::Circuit ckt = synthesize_filter(spec, style, kits);
    const rf::BandpassMetrics m = rf::measure_bandpass(ckt, spec.f0_hz, spec.bw_hz);
    p.il_calc_db = m.il_at_f0_db;
    if (spec.rejection.min_db > 0.0) {
      p.rejection_calc_db =
          rf::relative_rejection_db(ckt, spec.f0_hz, spec.rejection.freq_hz);
    }
  }

  ensure(p.il_calc_db > 0.0, "assess_filter: non-positive calculated loss");
  p.loss_score = std::min(1.0, p.il_spec_db / p.il_calc_db);
  if (p.rejection_spec_db > 0.0) {
    p.rejection_score = std::min(1.0, p.rejection_calc_db / p.rejection_spec_db);
  }
  p.score = std::min(p.loss_score, p.rejection_score);
  p.meets_spec = p.score >= 1.0 - 1e-9;
  return p;
}

PerformanceResult assess_performance(const FunctionalBom& bom, const BuildUp& buildup,
                                     const TechKits& kits) {
  // Opt-in profiling: disabled, one relaxed load and no clock read.
  metrics::Histogram* profile = nullptr;
  if (metrics::profiling_enabled()) {
    static metrics::Histogram& mna_sweeps =
        metrics::global_metrics().histogram("core_profile_mna_sweeps_ns");
    profile = &mna_sweeps;
  }
  const metrics::ScopedTimer timer(profile);
  PerformanceResult result;
  result.score = 1.0;
  for (const FilterSpec& f : bom.filters) {
    const FilterStyle style = filter_style_for(f, buildup.policy);
    FilterPerformance p = assess_filter(f, style, kits);
    result.score = std::min(result.score, p.score);
    result.filters.push_back(std::move(p));
  }
  return result;
}

std::string performance_key(const FunctionalBom& bom, const BuildUp& buildup,
                            const TechKits& kits) {
  std::string key;
  key.reserve(160);
  append_json_string(key, bom.name);
  append_json_string(key, passive_policy_name(buildup.policy));
  const bool reads_kits =
      std::any_of(bom.filters.begin(), bom.filters.end(), [&](const FilterSpec& f) {
        return filter_style_for(f, buildup.policy) != FilterStyle::SmdBlock;
      });
  if (reads_kits) {
    // Each number as its 8 bytes: a fixed width, a fraction of the cost of
    // its %.17g text, and the same finite doubles told apart.
    const rf::QModel& q = kits.precision_cap.quality;
    const tech::SpiralInductorProcess& s = kits.spiral;
    for (const double v :
         {q.q_peak(), q.f_peak(), q.slope(), s.line_width_um, s.line_spacing_um,
          s.metal_sheet_ohm_sq, s.fill_ratio, s.guard_clearance_um, s.wheeler_k1,
          s.wheeler_k2, s.substrate_q_factor, s.max_q_peak, s.q_peak_freq_hz, s.q_slope}) {
      char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      key.append(bytes, sizeof v);
    }
  }
  return key;
}

std::string PerformanceResult::to_table() const {
  TextTable t({"filter", "style", "IL spec", "IL calc", "rej spec", "rej calc", "score"});
  for (std::size_t c = 2; c <= 6; ++c) t.align_right(c);
  for (const FilterPerformance& p : filters) {
    t.add_row({p.name, filter_style_name(p.style), strf("%.2f dB", p.il_spec_db),
               strf("%.2f dB", p.il_calc_db),
               p.rejection_spec_db > 0.0 ? strf("%.1f dB", p.rejection_spec_db) : "-",
               p.rejection_spec_db > 0.0 ? strf("%.1f dB", p.rejection_calc_db) : "-",
               strf("%.2f", p.score)});
  }
  t.add_rule();
  t.add_row({"overall", "", "", "", "", "", strf("%.2f", score)});
  return t.to_string();
}

}  // namespace ipass::core
