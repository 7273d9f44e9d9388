// CSV export of assessment results, for spreadsheets/plotting scripts.
#pragma once

#include <string>

#include "core/methodology.hpp"
#include "core/scenario_grid.hpp"
#include "core/sensitivity.hpp"
#include "rf/tolerance.hpp"

namespace ipass::core {

// One row per build-up: index, name, performance, area ratios, cost
// decomposition (Eq. 1 terms), figure of merit.
std::string decision_report_csv(const DecisionReport& report);

// Full-fidelity JSON dump of a DecisionReport, built with the library's one
// JSON writer (common/jsonfmt.hpp).  Doubles take the %.17g format, which
// round-trips IEEE-754 binary64 exactly, so two reports whose
// serializations match are bitwise-identical field for field — this is the
// format of the golden files under tests/gps/golden/.
std::string decision_report_json(const DecisionReport& report);

// Same %.17g scheme for the scenario-grid engine: the summary of a grid
// sweep, exact to the bit (golden file tests/gps/golden/scenario_grid.json).
std::string scenario_grid_summary_json(const ScenarioGridSummary& summary);

// And for the tolerance engine: one Monte-Carlo ToleranceResult
// (tests/gps/golden/tolerance.json pins two named results).
std::string tolerance_result_json(const rf::ToleranceResult& result);

// And for the batched pipeline engine: every BuildUpSummary of a
// BatchAssessmentResult in the %.17g format, so a golden file pins the
// compiled/batched walk to the bit alongside the analytic and scenario-grid
// engines (tests/gps/golden/si_interposer_fleet.json).
std::string batch_result_json(const BatchAssessmentResult& result);

// One row per filter per build-up: the performance-assessment detail.
std::string performance_csv(const DecisionReport& report);

// One row per input: the elasticity table.
std::string sensitivity_csv(const SensitivityReport& report);

// Escape a value for CSV (quotes fields containing commas/quotes).
std::string csv_escape(const std::string& value);

}  // namespace ipass::core
