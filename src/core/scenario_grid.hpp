// Scenario-grid sharding: sweep a (build-up × process corner × volume)
// grid of cost scenarios across the thread pool.
//
// Chiplet-era cost studies frame technology selection as sweeping huge
// scenario grids rather than evaluating one operating point; this front-end
// does that for the paper's methodology.  It reads the batched pipeline's
// CompiledStudy and walks each build-up's flow, flattened once by the same
// emitter (CornerWalk), under every process corner; the volume axis then
// costs O(1) per cell.  Cells fan out over parallel_reduce with the usual
// determinism contract: chunk boundaries depend only on the grid shape and
// partials fold in ascending order, so a summary is bit-identical for every
// thread count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/buildup.hpp"
#include "core/cost_assess.hpp"
#include "core/function_bom.hpp"
#include "core/realization.hpp"

namespace ipass::core {

// The grid descriptor.  Cells are the cross product of the three axes;
// cell (b, c, v) carries buildups[b] under corners[c] at volumes[v]
// started units, with linear index (c * volumes.size() + v) * buildups.size() + b.
struct ScenarioGrid {
  std::vector<BuildUp> buildups;
  std::vector<ProcessCorner> corners;
  std::vector<double> volumes;
  // Optional per-build-up corner baseline, composed multiplicatively with
  // every corner of the axis (empty = nominal).  This is how a cross-kit
  // fleet sweeps a pilot line around its own fault/cost reality without
  // also perturbing the shared reference build-up: cell (b, c, v) is
  // walked under {corners[c].fault_scale * buildup_corners[b].fault_scale,
  // corners[c].cost_scale * buildup_corners[b].cost_scale}.
  std::vector<ProcessCorner> buildup_corners;

  std::size_t cell_count() const {
    return buildups.size() * corners.size() * volumes.size();
  }

  // Evenly spaced corner axis: n corners interpolating fault_scale over
  // [fault_lo, fault_hi] and cost_scale over [cost_lo, cost_hi] in lock
  // step.  Descending ranges are fine.
  static std::vector<ProcessCorner> corner_sweep(std::size_t n, double fault_lo,
                                                 double fault_hi, double cost_lo,
                                                 double cost_hi);

  // Geometrically spaced volume axis (descending supported).
  static std::vector<double> volume_sweep(std::size_t n, double lo, double hi);
};

// One evaluated cell (the summary keeps the extreme ones).
struct ScenarioCell {
  std::size_t cell = 0;     // linear index, see ScenarioGrid
  std::size_t buildup = 0;  // axis indices
  std::size_t corner = 0;
  std::size_t volume = 0;
  double final_cost_per_shipped = 0.0;
  double shipped_fraction = 0.0;
};

struct ScenarioGridSummary {
  std::size_t cells = 0;
  ScenarioCell best;   // lowest final cost per shipped (ties: lowest index)
  ScenarioCell worst;  // highest (ties: lowest index)
  double cost_mean = 0.0;
  double cost_stddev = 0.0;
  // For every (corner, volume) pair, the build-up with the lowest final
  // cost per shipped gets one win (ties: lowest build-up index).
  std::vector<std::size_t> wins_per_buildup;

  std::string to_string(const ScenarioGrid& grid) const;
};

struct CompiledStudy;  // core/methodology.hpp

// Evaluate the grid of the study's build-ups × corners × volumes, with the
// optional per-build-up corner baselines of ScenarioGrid::buildup_corners.
// threads = 0 resolves to IPASS_THREADS / hardware concurrency; results are
// bit-identical for every thread count.  Every corner scale must be finite
// and non-negative (PreconditionError naming the field otherwise).
ScenarioGridSummary evaluate_scenario_grid(const CompiledStudy& study,
                                           const std::vector<ProcessCorner>& corners,
                                           const std::vector<double>& volumes,
                                           const std::vector<ProcessCorner>& buildup_corners,
                                           unsigned threads = 0);

// Same, for a grid descriptor: compiles a cost-only study of grid.buildups
// and evaluates it.
ScenarioGridSummary evaluate_scenario_grid(const FunctionalBom& bom, const TechKits& kits,
                                           const ScenarioGrid& grid, unsigned threads = 0);

}  // namespace ipass::core
