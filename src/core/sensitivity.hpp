// One-at-a-time sensitivity analysis of the assessment outputs with respect
// to the production inputs — "which Table-2 number actually drives the
// decision?".  An extension beyond the paper, in the spirit of its cost-
// modeling reference [8].
//
// Implementation rides AssessmentPipeline::evaluate: the build-up's area is
// realized once, every perturbation becomes one compiled-cost evaluation
// (a per-point CompiledCostModel + ProductionData override), and the whole
// perturbation set is costed in a single batched call — N full assessments
// become N compiled-cost walks.  Results are bit-identical to the pre-
// pipeline implementation (re-assess per perturbation) for every thread
// count; the differential tests in tests/core/test_sensitivity.cpp pin
// that.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/area_assess.hpp"
#include "core/buildup.hpp"
#include "core/function_bom.hpp"
#include "core/realization.hpp"

namespace ipass::core {

// A scalar production/technology input that can be nudged.
struct SensitivityInput {
  std::string name;
  // Applies a relative perturbation (e.g. +0.05 for +5%) to a copy of the
  // build-up and returns it.
  std::function<BuildUp(const BuildUp&, double rel_change)> perturb;
  // Set when the perturbation can change the realized BOM or area (none of
  // the standard inputs do — they only touch costs and yields).  Such
  // inputs re-run the area assessment per perturbation so area-coupled
  // effects stay exact; the others reuse the pipeline's compiled area.
  bool affects_area = false;
};

// The standard input set: substrate cost/yield, chip costs/yields,
// assembly yields, packaging cost/yield, test cost/coverage, NRE.
std::vector<SensitivityInput> standard_inputs();

// How the elasticity is estimated from the perturbed evaluations.
// Forward is the historical default; Central removes the first-order bias
// a one-sided difference picks up on nonlinear inputs (yield-loss scaling
// enters the cost through exponentials) at the price of a second
// evaluation per input.
enum class FiniteDifference { Forward, Central };

struct SensitivityOptions {
  double rel_step = 0.05;  // must be in (0,1)
  FiniteDifference difference = FiniteDifference::Forward;
  // Worker threads for the batched evaluation; 0 resolves to IPASS_THREADS
  // / hardware concurrency.  Results are bit-identical for every count.
  unsigned threads = 0;
};

struct SensitivityRow {
  std::string input;
  double base_cost = 0.0;       // final cost per shipped, unperturbed
  double perturbed_cost = 0.0;  // with +`rel_step` on the input
  double perturbed_cost_down = 0.0;  // with -`rel_step` (Central only)
  // Elasticity: (dCost/Cost) / (dInput/Input); 0.5 means a 10% input change
  // moves the final cost by 5%.
  double elasticity = 0.0;
};

struct SensitivityReport {
  std::vector<SensitivityRow> rows;  // sorted by |elasticity| descending
  double rel_step = 0.0;
  FiniteDifference difference = FiniteDifference::Forward;
  std::string to_table() const;
};

// Compute cost elasticities for one build-up whose realized area the
// caller already holds: `area` must equal assess_area(bom, buildup, kits),
// as a compiled study's areas[b] does for its build-up b under any
// production data (volume never reaches area).  Only inputs that set
// affects_area realize the BOM again.
SensitivityReport cost_sensitivity(const FunctionalBom& bom, const BuildUp& buildup,
                                   const TechKits& kits, const AreaResult& area,
                                   const SensitivityOptions& options);

// The same, realizing the build-up's area first (area-coupled effects —
// substrate cost follows substrate area — are included).
SensitivityReport cost_sensitivity(const FunctionalBom& bom, const BuildUp& buildup,
                                   const TechKits& kits,
                                   const SensitivityOptions& options);

// Historical signature: forward difference, default threading.
SensitivityReport cost_sensitivity(const FunctionalBom& bom, const BuildUp& buildup,
                                   const TechKits& kits, double rel_step = 0.05);

}  // namespace ipass::core
