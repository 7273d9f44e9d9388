// Cross-kit fleet sweeps: assess many process-kit backends against one
// functional BOM on the batched engines.
//
// For every selected kit, the sweep builds a study of [reference-kit
// build-ups..., kit build-ups...], compiles it once into an
// AssessmentPipeline, and fans a (corner x volume) scenario fleet through
// both batched engines: evaluate_scenario_grid (cost landscape per cell)
// and pareto_sweep (a dominance frontier per scenario point, corners
// mapped onto per-point ProductionData/model overrides).  A per-kit
// DecisionReport summarizes the nominal operating point.  Every engine
// involved is deterministic for any thread count, so a fleet summary is
// bit-identical under IPASS_THREADS=1 and =8.
#pragma once

#include <string>
#include <vector>

#include "core/methodology.hpp"
#include "core/pareto.hpp"
#include "core/partition.hpp"
#include "core/scenario_grid.hpp"
#include "kits/registry.hpp"

namespace ipass::kits {

struct KitSweepOptions {
  // Scenario axes shared by every kit.  Corner c and volume v map to sweep
  // point c * volumes.size() + v.  Empty volumes = each kit's default
  // production volume only.  Each kit's own corner baseline folds into
  // every corner (multiplicative), so a pilot line is swept around its own
  // fault/cost reality instead of the nominal one.  The baseline applies
  // only to the kit's own build-ups — the shared reference build-ups stay
  // at the grid's corners, so every kit is measured against the same anchor.
  std::vector<core::ProcessCorner> corners = {core::ProcessCorner{}};
  std::vector<double> volumes;
  core::FomWeights weights;
  // Registry name of the kit whose build-ups anchor every study as the
  // 100% reference (empty = first kit of the selection).  Use an all-SMD
  // carrier (the paper's PCB): its realization must not depend on the
  // swept kit's passive processes.
  std::string reference;
  unsigned threads = 0;  // 0 = IPASS_THREADS / hardware
  // Optional ChipletPart-style partitioning search, run per kit against its
  // best own build-up at the nominal point: the blocks are grouped into
  // chiplet die lists and every grouping costed through the kit's compiled
  // study (see core/partition.hpp).  Empty = no partition search.
  std::vector<core::PartitionBlock> partition_blocks;
  core::PartitionCostParams partition_params;
};

// Everything the fleet keeps per kit.
struct KitAssessment {
  std::string kit;
  KitMaturity maturity = KitMaturity::Production;
  // Index of the kit's first own build-up inside report/grid/pareto
  // (preceded by the shared reference build-ups).
  std::size_t own_offset = 0;
  core::DecisionReport report;      // nominal operating point, full fidelity
  core::ScenarioGridSummary grid;   // (corner x volume) cost landscape
  core::ParetoSweepSummary pareto;  // frontier per scenario point
  std::size_t best_variant = 0;     // report index of the kit's best own build-up
  double best_fom = 0.0;
  // Partitioning search over options.partition_blocks against the kit's
  // best own build-up (candidates empty when the search was not requested).
  core::PartitionSweepResult partition;
};

struct KitFleetSummary {
  std::vector<KitAssessment> kits;  // selection order
  std::size_t winner = 0;           // kit with the highest best_fom (ties: first)

  // One line per kit: maturity, best variant, FoM, cost/area vs reference,
  // scenario wins and frontier presence.
  std::string to_table() const;
};

// Sweep a fleet of kits.  `selection` names registry entries; the
// reference kit is prepended to every per-kit study (and assessed once as
// its own entry when selected).  Deterministic for any thread count.
KitFleetSummary sweep_kits(const KitRegistry& registry,
                           const std::vector<std::string>& selection,
                           const core::FunctionalBom& bom,
                           const KitSweepOptions& options = {});

// The scenario points a (corner x volume) fleet feeds to pareto_sweep for
// one study: corner scalings mapped onto per-point ProductionData (yields
// raised to fault_scale, line costs multiplied by cost_scale — NRE is
// scenario overhead and stays unscaled) plus per-point compiled-model
// overrides (substrate cost/yield, SMD parts cost).  `baselines` is the
// optional per-build-up corner baseline (empty = nominal), composed
// multiplicatively with every corner — the counterpart of
// ScenarioGrid::buildup_corners.  Exposed for tests.
std::vector<core::AssessmentInputs> fleet_scenario_points(
    const core::AssessmentPipeline& pipeline, const std::vector<core::ProcessCorner>& corners,
    const std::vector<double>& volumes, const core::FomWeights& weights,
    const std::vector<core::ProcessCorner>& baselines = {});

}  // namespace ipass::kits
