#include "core/export.hpp"

#include "common/jsonfmt.hpp"
#include "common/strfmt.hpp"

namespace ipass::core {

std::string csv_escape(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) return value;
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

namespace {

// Each helper appends `text` verbatim (the separator and key of the field)
// and then the value, so the literals below read as the document itself.
void num(std::string& out, const char* text, double v) {
  out += text;
  append_json_number(out, v);
}

void count(std::string& out, const char* text, std::size_t n) {
  out += text;
  out += std::to_string(n);
}

void append_ledger(std::string& out, const moe::Ledger& ledger) {
  out += '{';
  for (int i = 0; i < moe::kCostCategoryCount; ++i) {
    if (i) out += ", ";
    out += '"';
    out += moe::cost_category_name(static_cast<moe::CostCategory>(i));
    num(out, "\": ", ledger.v[i]);
  }
  out += '}';
}

// A JSON array of counts on one line: [1, 2, 3].
void append_counts(std::string& out, const std::vector<std::size_t>& counts) {
  out += '[';
  for (std::size_t i = 0; i < counts.size(); ++i) count(out, i ? ", " : "", counts[i]);
  out += ']';
}

}  // namespace

std::string decision_report_json(const DecisionReport& report) {
  std::string out;
  count(out, "{\n  \"reference\": ", report.reference);
  count(out, ",\n  \"winner\": ", report.winner);
  num(out, ",\n  \"weights\": {\"performance\": ", report.weights.performance);
  num(out, ", \"size\": ", report.weights.size);
  num(out, ", \"cost\": ", report.weights.cost);
  out += "},\n  \"assessments\": [\n";
  for (std::size_t i = 0; i < report.assessments.size(); ++i) {
    const BuildUpAssessment& a = report.assessments[i];
    out += "    {\n      \"index\": ";
    out += std::to_string(a.buildup.index);
    out += ",\n      \"name\": ";
    append_json_string(out, a.buildup.name);
    num(out, ",\n      \"performance\": {\"score\": ", a.performance.score);
    out += ", \"filters\": [\n";
    for (std::size_t f = 0; f < a.performance.filters.size(); ++f) {
      const FilterPerformance& fp = a.performance.filters[f];
      out += "        {\"name\": ";
      append_json_string(out, fp.name);
      out += ", \"style\": \"";
      out += filter_style_name(fp.style);
      num(out, "\", \"il_spec_db\": ", fp.il_spec_db);
      num(out, ", \"il_calc_db\": ", fp.il_calc_db);
      num(out, ", \"rejection_spec_db\": ", fp.rejection_spec_db);
      num(out, ", \"rejection_calc_db\": ", fp.rejection_calc_db);
      num(out, ", \"loss_score\": ", fp.loss_score);
      num(out, ", \"rejection_score\": ", fp.rejection_score);
      num(out, ", \"score\": ", fp.score);
      out += ", \"meets_spec\": ";
      out += fp.meets_spec ? "true" : "false";
      out += f + 1 < a.performance.filters.size() ? "},\n" : "}\n";
    }
    num(out, "      ]},\n      \"area\": {\"component_area_mm2\": ",
        a.area.component_area_mm2);
    num(out, ", \"smd_area_mm2\": ", a.area.smd_area_mm2);
    num(out, ", \"substrate_side_mm\": ", a.area.substrate.side_mm);
    num(out, ", \"substrate_area_mm2\": ", a.area.substrate.area_mm2);
    num(out, ", \"module_side_mm\": ", a.area.module.side_mm);
    num(out, ", \"module_area_mm2\": ", a.area.module.area_mm2);
    const moe::CostReport& c = a.cost;
    num(out, "},\n      \"cost\": {\"volume\": ", c.volume);
    num(out, ", \"shipped_fraction\": ", c.shipped_fraction);
    num(out, ", \"shipped_units\": ", c.shipped_units);
    num(out, ", \"good_fraction\": ", c.good_fraction);
    num(out, ", \"escaped_defect_rate\": ", c.escaped_defect_rate);
    num(out, ", \"direct_cost\": ", c.direct_cost);
    num(out, ", \"yield_loss_per_shipped\": ", c.yield_loss_per_shipped);
    num(out, ", \"nre_per_shipped\": ", c.nre_per_shipped);
    num(out, ", \"final_cost_per_shipped\": ", c.final_cost_per_shipped);
    num(out, ", \"total_spend_per_started\": ", c.total_spend_per_started);
    out += ",\n      \"direct_ledger\": ";
    append_ledger(out, c.direct_ledger);
    out += ",\n      \"spend_ledger\": ";
    append_ledger(out, c.spend_ledger);
    num(out, "},\n      \"area_rel\": ", a.area_rel);
    num(out, ",\n      \"cost_rel\": ", a.cost_rel);
    num(out, ",\n      \"fom\": ", a.fom);
    out += i + 1 < report.assessments.size() ? "\n    },\n" : "\n    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string decision_report_csv(const DecisionReport& report) {
  std::string out =
      "index,name,performance,module_area_mm2,area_rel,final_cost_per_shipped,"
      "cost_rel,direct_cost,chip_cost_direct,yield_loss_per_shipped,nre_per_shipped,"
      "shipped_fraction,fom,winner\n";
  for (std::size_t i = 0; i < report.assessments.size(); ++i) {
    const BuildUpAssessment& a = report.assessments[i];
    out += strf("%d,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%d\n",
                a.buildup.index, csv_escape(a.buildup.name).c_str(),
                a.performance.score, a.area.module_area_mm2(), a.area_rel,
                a.cost.final_cost_per_shipped, a.cost_rel, a.cost.direct_cost,
                a.cost.chip_cost_direct(), a.cost.yield_loss_per_shipped,
                a.cost.nre_per_shipped, a.cost.shipped_fraction, a.fom,
                i == report.winner ? 1 : 0);
  }
  return out;
}

namespace {

void append_scenario_cell(std::string& out, const ScenarioCell& cell) {
  count(out, "{\"cell\": ", cell.cell);
  count(out, ", \"buildup\": ", cell.buildup);
  count(out, ", \"corner\": ", cell.corner);
  count(out, ", \"volume\": ", cell.volume);
  num(out, ", \"final_cost_per_shipped\": ", cell.final_cost_per_shipped);
  num(out, ", \"shipped_fraction\": ", cell.shipped_fraction);
  out += '}';
}

}  // namespace

std::string scenario_grid_summary_json(const ScenarioGridSummary& summary) {
  std::string out;
  count(out, "{\n  \"cells\": ", summary.cells);
  num(out, ",\n  \"cost_mean\": ", summary.cost_mean);
  num(out, ",\n  \"cost_stddev\": ", summary.cost_stddev);
  out += ",\n  \"best\": ";
  append_scenario_cell(out, summary.best);
  out += ",\n  \"worst\": ";
  append_scenario_cell(out, summary.worst);
  out += ",\n  \"wins_per_buildup\": ";
  append_counts(out, summary.wins_per_buildup);
  out += "\n}\n";
  return out;
}

std::string batch_result_json(const BatchAssessmentResult& result) {
  std::string out;
  count(out, "{\n  \"points\": ", result.points);
  count(out, ",\n  \"buildups\": ", result.buildups);
  out += ",\n  \"summaries\": [\n";
  for (std::size_t i = 0; i < result.summaries.size(); ++i) {
    const BuildUpSummary& s = result.summaries[i];
    num(out, "    {\"performance\": ", s.performance);
    num(out, ", \"module_area_mm2\": ", s.module_area_mm2);
    num(out, ", \"area_rel\": ", s.area_rel);
    num(out, ", \"shipped_fraction\": ", s.shipped_fraction);
    num(out, ", \"direct_cost\": ", s.direct_cost);
    num(out, ", \"chip_cost_direct\": ", s.chip_cost_direct);
    num(out, ", \"yield_loss_per_shipped\": ", s.yield_loss_per_shipped);
    num(out, ", \"nre_per_shipped\": ", s.nre_per_shipped);
    num(out, ", \"final_cost_per_shipped\": ", s.final_cost_per_shipped);
    num(out, ", \"cost_rel\": ", s.cost_rel);
    num(out, ", \"fom\": ", s.fom);
    out += i + 1 < result.summaries.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"winners\": ";
  append_counts(out, result.winners);
  out += "\n}\n";
  return out;
}

std::string tolerance_result_json(const rf::ToleranceResult& result) {
  std::string out;
  count(out, "{\"samples\": ", result.samples);
  count(out, ", \"passing\": ", result.passing);
  num(out, ", \"parametric_yield\": ", result.parametric_yield);
  num(out, ", \"ci95_half_width\": ", result.ci95_half_width);
  num(out, ", \"metric_mean\": ", result.metric_mean);
  num(out, ", \"metric_stddev\": ", result.metric_stddev);
  num(out, ", \"metric_min\": ", result.metric_min);
  num(out, ", \"metric_max\": ", result.metric_max);
  out += '}';
  return out;
}

std::string performance_csv(const DecisionReport& report) {
  std::string out =
      "buildup_index,buildup_name,filter,style,il_spec_db,il_calc_db,"
      "rejection_spec_db,rejection_calc_db,score,meets_spec\n";
  for (const BuildUpAssessment& a : report.assessments) {
    for (const FilterPerformance& f : a.performance.filters) {
      out += strf("%d,%s,%s,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%d\n", a.buildup.index,
                  csv_escape(a.buildup.name).c_str(), csv_escape(f.name).c_str(),
                  filter_style_name(f.style), f.il_spec_db, f.il_calc_db,
                  f.rejection_spec_db, f.rejection_calc_db, f.score,
                  f.meets_spec ? 1 : 0);
    }
  }
  return out;
}

std::string sensitivity_csv(const SensitivityReport& report) {
  std::string out = "input,rel_step,base_cost,perturbed_cost,elasticity\n";
  for (const SensitivityRow& r : report.rows) {
    out += strf("%s,%.6g,%.6g,%.6g,%.6g\n", csv_escape(r.input).c_str(),
                report.rel_step, r.base_cost, r.perturbed_cost, r.elasticity);
  }
  return out;
}

}  // namespace ipass::core
