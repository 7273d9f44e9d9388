// The fleet's two corner engines must agree: for every built-in kit, in the
// study shape sweep_kits builds (the shared PCB reference build-ups, then the
// kit's own, with the kit's corner baseline composed on its own build-ups),
// a one-cell scenario grid and the batched pipeline fed with
// fleet_scenario_points cost every (build-up, corner, volume) cell the same.
//
// The grid scales each flow step's fault intensity and booked cost; the
// points scale the production inputs instead (yields raised to fault_scale,
// costs multiplied by cost_scale) and walk the compiled batch path.  The two
// are one semantics computed in different orders, so they agree to rounding,
// not to the bit.
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/methodology.hpp"
#include "core/scenario_grid.hpp"
#include "gps/bom.hpp"
#include "kits/fleet.hpp"
#include "kits/registry.hpp"

namespace ipass::kits {
namespace {

constexpr double kRelTol = 1e-15;

void expect_close(double grid, double pipeline, const char* what) {
  EXPECT_LE(std::fabs(grid - pipeline), kRelTol * std::fabs(pipeline))
      << what << ": grid " << grid << " vs pipeline " << pipeline;
}

TEST(FleetEngineAgreement, GridMatchesScenarioPointsOnEveryKitCell) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const ProcessKit& reference = registry.at(kPcbFr4Kit);
  const std::vector<core::ProcessCorner> corners = {
      {1.0, 1.0}, {0.0, 1.0}, {0.5, 0.9}, {2.0, 1.1}, {4.0, 1.3}};
  const std::vector<double> volumes = core::ScenarioGrid::volume_sweep(3, 1e3, 1e6);

  std::size_t cells = 0;
  for (const ProcessKit& kit : registry.kits()) {
    SCOPED_TRACE(kit.name);
    // sweep_kits' study: reference build-ups first, then the kit's own.
    const bool is_reference = kit.name == reference.name;
    std::vector<core::BuildUp> buildups = make_buildups(reference);
    const std::size_t own_offset = is_reference ? 0 : buildups.size();
    if (!is_reference) {
      for (const core::BuildUp& b :
           make_buildups(kit, static_cast<int>(buildups.size()) + 1)) {
        buildups.push_back(b);
      }
    }
    std::vector<core::ProcessCorner> baselines(buildups.size());
    for (std::size_t b = own_offset; b < buildups.size(); ++b) baselines[b] = kit.corner;

    const core::TechKits tech_kits = apply_passives(kit);
    const core::AssessmentPipeline pipeline(bom, buildups, tech_kits,
                                            core::PipelineScope::CostOnly);
    const core::BatchAssessmentResult batch = pipeline.evaluate(
        fleet_scenario_points(pipeline, corners, volumes, core::FomWeights{}, baselines));
    ASSERT_EQ(batch.points, corners.size() * volumes.size());

    for (std::size_t b = 0; b < buildups.size(); ++b) {
      for (std::size_t c = 0; c < corners.size(); ++c) {
        for (std::size_t v = 0; v < volumes.size(); ++v) {
          SCOPED_TRACE(buildups[b].name + " corner " + std::to_string(c) + " volume " +
                       std::to_string(v));
          core::ScenarioGrid one;
          one.buildups = {buildups[b]};
          one.corners = {corners[c]};
          one.volumes = {volumes[v]};
          one.buildup_corners = {baselines[b]};
          const core::ScenarioGridSummary grid =
              core::evaluate_scenario_grid(bom, tech_kits, one);
          ASSERT_EQ(grid.cells, 1u);
          const core::BuildUpSummary& point = batch.at(c * volumes.size() + v, b);
          expect_close(grid.best.final_cost_per_shipped, point.final_cost_per_shipped,
                       "final_cost_per_shipped");
          expect_close(grid.best.shipped_fraction, point.shipped_fraction,
                       "shipped_fraction");
          ++cells;
        }
      }
    }
  }
  EXPECT_EQ(cells, 240u);
}

}  // namespace
}  // namespace ipass::kits
