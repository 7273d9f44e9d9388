#include "core/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "common/table.hpp"
#include "core/area_assess.hpp"
#include "core/cost_assess.hpp"
#include "core/methodology.hpp"

namespace ipass::core {

namespace {

// Scale a probability toward 1 keeping it in (0, 1]: perturbing a yield by
// +x% reduces the *loss* (1-y) by x%.
double scale_yield(double y, double rel_change) {
  const double loss = (1.0 - y) * (1.0 - rel_change);
  return std::clamp(1.0 - loss, 1e-6, 1.0);
}

}  // namespace

std::vector<SensitivityInput> standard_inputs() {
  std::vector<SensitivityInput> inputs;
  auto add = [&inputs](std::string name, auto fn) {
    inputs.push_back(SensitivityInput{std::move(name), fn});
  };

  add("substrate cost/cm^2", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.substrate.cost_per_cm2 *= 1.0 + d;
    return out;
  });
  add("substrate yield (loss)", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.substrate.fab_yield = scale_yield(out.substrate.fab_yield, d);
    return out;
  });
  add("RF chip cost", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.rf_chip_cost *= 1.0 + d;
    return out;
  });
  add("DSP cost", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.dsp_cost *= 1.0 + d;
    return out;
  });
  add("RF chip yield (loss)", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.rf_chip_yield = scale_yield(out.production.rf_chip_yield, d);
    return out;
  });
  add("chip assembly yield (loss)", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.chip_assembly_yield =
        scale_yield(out.production.chip_assembly_yield, d);
    return out;
  });
  add("packaging cost", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.packaging_cost *= 1.0 + d;
    return out;
  });
  add("packaging yield (loss)", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.packaging_yield = scale_yield(out.production.packaging_yield, d);
    return out;
  });
  add("final test cost", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.final_test_cost *= 1.0 + d;
    return out;
  });
  add("final test coverage (escape)", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.final_test_coverage =
        scale_yield(out.production.final_test_coverage, d);
    return out;
  });
  add("NRE", [](const BuildUp& b, double d) {
    BuildUp out = b;
    out.production.nre_total *= 1.0 + d;
    return out;
  });
  return inputs;
}

SensitivityReport cost_sensitivity(const FunctionalBom& bom, const BuildUp& buildup,
                                   const TechKits& kits, const AreaResult& area,
                                   const SensitivityOptions& options) {
  const double rel_step = options.rel_step;
  require(rel_step > 0.0 && rel_step < 1.0, "cost_sensitivity: step must be in (0,1)");
  const bool central = options.difference == FiniteDifference::Central;

  // Compile once around the given area (the cost outputs never read the
  // performance simulations), then express every perturbed build-up as one
  // sweep point: its production data plus a recompiled cost model, which
  // carries the non-production inputs a perturbation can touch (substrate
  // cost/yield).  evaluate_compiled_cost is the bit-exact twin of the
  // build_flow + evaluate_analytic path, so each point's final cost equals
  // the historical per-perturbation re-assessment down to the last ulp.
  StudyParts given;
  given.areas = {area};
  const AssessmentPipeline pipeline(
      compile_study(bom, {buildup}, kits, PipelineScope::CostOnly, std::move(given)));
  const std::vector<SensitivityInput> inputs = standard_inputs();

  auto point_for = [&](const BuildUp& b, bool affects_area) {
    AssessmentInputs point;
    point.models = {affects_area ? compile_cost_model(assess_area(bom, b, kits), b)
                                 : compile_cost_model(pipeline.area(0), b)};
    point.production = {b.production};
    return point;
  };

  std::vector<AssessmentInputs> points;
  points.reserve(1 + inputs.size() * (central ? 2 : 1));
  points.push_back(AssessmentInputs{});  // the unperturbed base
  for (const SensitivityInput& input : inputs) {
    points.push_back(point_for(input.perturb(buildup, rel_step), input.affects_area));
    if (central) {
      points.push_back(point_for(input.perturb(buildup, -rel_step), input.affects_area));
    }
  }

  const BatchAssessmentResult batch = pipeline.evaluate(points, options.threads);
  const auto final_cost = [&](std::size_t point) {
    return batch.at(point, 0).final_cost_per_shipped;
  };
  const double base = final_cost(0);
  ensure(base > 0.0, "cost_sensitivity: degenerate base cost");

  SensitivityReport report;
  report.rel_step = rel_step;
  report.difference = options.difference;
  std::size_t next = 1;
  for (const SensitivityInput& input : inputs) {
    SensitivityRow row;
    row.input = input.name;
    row.base_cost = base;
    row.perturbed_cost = final_cost(next++);
    if (central) {
      row.perturbed_cost_down = final_cost(next++);
      row.elasticity =
          ((row.perturbed_cost - row.perturbed_cost_down) / base) / (2.0 * rel_step);
    } else {
      row.elasticity = ((row.perturbed_cost - base) / base) / rel_step;
    }
    report.rows.push_back(std::move(row));
  }
  std::sort(report.rows.begin(), report.rows.end(),
            [](const SensitivityRow& a, const SensitivityRow& b) {
              return std::abs(a.elasticity) > std::abs(b.elasticity);
            });
  return report;
}

SensitivityReport cost_sensitivity(const FunctionalBom& bom, const BuildUp& buildup,
                                   const TechKits& kits,
                                   const SensitivityOptions& options) {
  return cost_sensitivity(bom, buildup, kits, assess_area(bom, buildup, kits), options);
}

SensitivityReport cost_sensitivity(const FunctionalBom& bom, const BuildUp& buildup,
                                   const TechKits& kits, double rel_step) {
  SensitivityOptions options;
  options.rel_step = rel_step;
  return cost_sensitivity(bom, buildup, kits, options);
}

std::string SensitivityReport::to_table() const {
  TextTable t({"input (+" + percent(rel_step, 0) + ")", "final cost", "elasticity"});
  t.align_right(1);
  t.align_right(2);
  for (const SensitivityRow& r : rows) {
    t.add_row({r.input, fixed(r.perturbed_cost, 3), strf("%+.3f", r.elasticity)});
  }
  return t.to_string();
}

}  // namespace ipass::core
