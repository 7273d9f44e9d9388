#include "core/scenario_grid.hpp"

#include <cstddef>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/area_assess.hpp"
#include "core/cost_assess.hpp"
#include "gps/casestudy.hpp"

namespace ipass::core {
namespace {

ScenarioGrid small_grid(const gps::GpsCaseStudy& study) {
  ScenarioGrid grid;
  grid.buildups = study.buildups;
  grid.corners = ScenarioGrid::corner_sweep(5, 0.5, 2.0, 0.8, 1.2);
  grid.volumes = ScenarioGrid::volume_sweep(7, 1e3, 1e6);
  return grid;
}

TEST(ScenarioGrid, AxisHelpers) {
  const auto corners = ScenarioGrid::corner_sweep(3, 1.0, 2.0, 1.0, 0.5);
  ASSERT_EQ(corners.size(), 3u);
  EXPECT_DOUBLE_EQ(corners.front().fault_scale, 1.0);
  EXPECT_DOUBLE_EQ(corners.back().fault_scale, 2.0);
  EXPECT_DOUBLE_EQ(corners.back().cost_scale, 0.5);  // descending is fine
  const auto volumes = ScenarioGrid::volume_sweep(4, 1e6, 1e3);  // descending
  ASSERT_EQ(volumes.size(), 4u);
  EXPECT_NEAR(volumes[0], 1e6, 1e-3);
  EXPECT_NEAR(volumes[3], 1e3, 1e-6);
  EXPECT_GT(volumes[0], volumes[1]);
  EXPECT_THROW(ScenarioGrid::corner_sweep(0, 1, 1, 1, 1), PreconditionError);
  EXPECT_THROW(ScenarioGrid::volume_sweep(2, 0.0, 1e3), PreconditionError);
}

TEST(ScenarioGrid, NeutralCornerMatchesAssessCost) {
  // With fault/cost scales of 1 and the build-up's own volume, a cell must
  // reproduce the analytic assessment.
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  ScenarioGrid grid;
  grid.buildups = {study.buildups[0]};
  grid.corners = {ProcessCorner{}};  // neutral
  grid.volumes = {study.buildups[0].production.volume};
  const ScenarioGridSummary summary =
      evaluate_scenario_grid(study.bom, study.kits, grid);
  ASSERT_EQ(summary.cells, 1u);
  const AreaResult area = assess_area(study.bom, study.buildups[0], study.kits);
  const CostAssessment ref = assess_cost(area, study.buildups[0]);
  EXPECT_NEAR(summary.best.final_cost_per_shipped, ref.report.final_cost_per_shipped,
              1e-9 * ref.report.final_cost_per_shipped);
  EXPECT_NEAR(summary.best.shipped_fraction, ref.report.shipped_fraction, 1e-12);
}

TEST(ScenarioGrid, ThreadCountDoesNotChangeTheSummary) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const ScenarioGrid grid = small_grid(study);
  const ScenarioGridSummary a = evaluate_scenario_grid(study.bom, study.kits, grid, 1);
  const ScenarioGridSummary b = evaluate_scenario_grid(study.bom, study.kits, grid, 4);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.best.cell, b.best.cell);
  EXPECT_EQ(a.worst.cell, b.worst.cell);
  EXPECT_EQ(a.best.final_cost_per_shipped, b.best.final_cost_per_shipped);
  EXPECT_EQ(a.worst.final_cost_per_shipped, b.worst.final_cost_per_shipped);
  EXPECT_EQ(a.cost_mean, b.cost_mean);
  EXPECT_EQ(a.cost_stddev, b.cost_stddev);
  ASSERT_EQ(a.wins_per_buildup.size(), b.wins_per_buildup.size());
  for (std::size_t i = 0; i < a.wins_per_buildup.size(); ++i) {
    EXPECT_EQ(a.wins_per_buildup[i], b.wins_per_buildup[i]);
  }
}

TEST(ScenarioGrid, SummaryShapeAndMonotonicity) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const ScenarioGrid grid = small_grid(study);
  const ScenarioGridSummary summary =
      evaluate_scenario_grid(study.bom, study.kits, grid);
  EXPECT_EQ(summary.cells, grid.cell_count());
  EXPECT_EQ(summary.cells, 4u * 5u * 7u);
  EXPECT_LE(summary.best.final_cost_per_shipped, summary.cost_mean);
  EXPECT_GE(summary.worst.final_cost_per_shipped, summary.cost_mean);
  // Every (corner, volume) pair crowns exactly one winner.
  std::size_t wins = 0;
  ASSERT_EQ(summary.wins_per_buildup.size(), grid.buildups.size());
  for (const std::size_t w : summary.wins_per_buildup) wins += w;
  EXPECT_EQ(wins, grid.corners.size() * grid.volumes.size());
  // Higher volume amortizes NRE: with everything else fixed, the cost per
  // shipped must not increase with volume.
  ScenarioGrid mono = grid;
  mono.buildups = {study.buildups[3]};
  mono.corners = {ProcessCorner{}};
  double last = 1e300;
  for (const double v : mono.volumes) {
    ScenarioGrid one = mono;
    one.volumes = {v};
    const ScenarioGridSummary s = evaluate_scenario_grid(study.bom, study.kits, one);
    EXPECT_LE(s.best.final_cost_per_shipped, last);
    last = s.best.final_cost_per_shipped;
  }
  // And a harsher fault corner can only hurt.
  ScenarioGrid harsh = mono;
  harsh.corners = {ProcessCorner{2.0, 1.0}};
  const ScenarioGridSummary easy = evaluate_scenario_grid(study.bom, study.kits, mono);
  const ScenarioGridSummary hard = evaluate_scenario_grid(study.bom, study.kits, harsh);
  EXPECT_GT(hard.cost_mean, easy.cost_mean);
  // to_string renders without blowing up.
  EXPECT_NE(hard.to_string(harsh).find("Scenario grid"), std::string::npos);
}

TEST(ScenarioGrid, Preconditions) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  ScenarioGrid grid = small_grid(study);
  grid.buildups.clear();
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
  grid = small_grid(study);
  grid.volumes = {0.0};
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
  grid = small_grid(study);
  grid.corners = {ProcessCorner{-1.0, 1.0}};
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
  grid = small_grid(study);
  grid.buildup_corners = {ProcessCorner{}};  // wrong size (4 build-ups)
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
  grid = small_grid(study);
  grid.buildup_corners.assign(grid.buildups.size(), ProcessCorner{});
  grid.buildup_corners[1].cost_scale = -1.0;
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
  // Infinite scales: 0 * inf on a zero-cost step would turn the summary into
  // NaN, and an infinite fault scale scraps the whole line.
  const double inf = std::numeric_limits<double>::infinity();
  grid = small_grid(study);
  grid.corners = {ProcessCorner{1.0, inf}};
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
  grid.corners = {ProcessCorner{inf, 1.0}};
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
  grid = small_grid(study);
  grid.buildup_corners.assign(grid.buildups.size(), ProcessCorner{});
  grid.buildup_corners[2].cost_scale = inf;
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
  grid.buildup_corners[2] = ProcessCorner{inf, 1.0};
  EXPECT_THROW(evaluate_scenario_grid(study.bom, study.kits, grid), PreconditionError);
}

// Per-build-up corner baselines: identity baselines change nothing (x1.0
// is bit-exact), and a baseline on build-up b equals pre-composing the
// corner axis of a grid holding only b.
TEST(ScenarioGrid, BuildupCornerBaselines) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const ScenarioGrid grid = small_grid(study);

  ScenarioGrid with_identity = grid;
  with_identity.buildup_corners.assign(grid.buildups.size(), ProcessCorner{});
  const ScenarioGridSummary plain = evaluate_scenario_grid(study.bom, study.kits, grid);
  const ScenarioGridSummary identity =
      evaluate_scenario_grid(study.bom, study.kits, with_identity);
  EXPECT_EQ(plain.cost_mean, identity.cost_mean);
  EXPECT_EQ(plain.cost_stddev, identity.cost_stddev);
  EXPECT_EQ(plain.best.final_cost_per_shipped, identity.best.final_cost_per_shipped);
  EXPECT_EQ(plain.worst.final_cost_per_shipped, identity.worst.final_cost_per_shipped);
  EXPECT_EQ(plain.wins_per_buildup, identity.wins_per_buildup);

  // Single build-up: baseline {f0, c0} == corner axis scaled by {f0, c0}.
  const ProcessCorner baseline{1.5, 1.2};
  ScenarioGrid one = grid;
  one.buildups = {grid.buildups[2]};
  one.buildup_corners = {baseline};
  ScenarioGrid composed = one;
  composed.buildup_corners.clear();
  for (ProcessCorner& c : composed.corners) {
    c.fault_scale *= baseline.fault_scale;
    c.cost_scale *= baseline.cost_scale;
  }
  const ScenarioGridSummary a = evaluate_scenario_grid(study.bom, study.kits, one);
  const ScenarioGridSummary b = evaluate_scenario_grid(study.bom, study.kits, composed);
  EXPECT_EQ(a.cost_mean, b.cost_mean);
  EXPECT_EQ(a.best.final_cost_per_shipped, b.best.final_cost_per_shipped);
  EXPECT_EQ(a.worst.final_cost_per_shipped, b.worst.final_cost_per_shipped);
  // And the baseline really moved the numbers off the plain walk.
  const ScenarioGridSummary nominal = evaluate_scenario_grid(
      study.bom, study.kits,
      [&] {
        ScenarioGrid g = one;
        g.buildup_corners.clear();
        return g;
      }());
  EXPECT_NE(a.cost_mean, nominal.cost_mean);
}

}  // namespace
}  // namespace ipass::core
