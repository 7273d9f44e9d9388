#include "core/scenario_grid.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/statistics.hpp"
#include "common/strfmt.hpp"
#include "core/area_assess.hpp"
#include "core/cost_assess.hpp"
#include "core/flow_walk_kernel.hpp"

namespace ipass::core {

std::vector<ProcessCorner> ScenarioGrid::corner_sweep(std::size_t n, double fault_lo,
                                                      double fault_hi, double cost_lo,
                                                      double cost_hi) {
  require(n >= 1, "corner_sweep: need at least one corner");
  std::vector<ProcessCorner> corners(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = n == 1 ? 0.0
                            : static_cast<double>(i) / static_cast<double>(n - 1);
    corners[i].fault_scale = fault_lo + (fault_hi - fault_lo) * t;
    corners[i].cost_scale = cost_lo + (cost_hi - cost_lo) * t;
  }
  return corners;
}

std::vector<double> ScenarioGrid::volume_sweep(std::size_t n, double lo, double hi) {
  require(n >= 1, "volume_sweep: need at least one volume");
  require(lo > 0.0 && hi > 0.0, "volume_sweep: volumes must be positive");
  std::vector<double> volumes(n);
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = n == 1 ? 0.0
                            : static_cast<double>(i) / static_cast<double>(n - 1);
    volumes[i] = std::pow(10.0, llo + (lhi - llo) * t);
  }
  return volumes;
}

namespace {

// A production flow flattened for repeated corner evaluation: everything
// evaluate_analytic reads per step, as plain numbers.  The flows come from
// build_flow, which never sets a rework policy, so rework is not carried.
struct CompiledStep {
  bool is_test = false;
  double cost = 0.0;      // direct cost booked per alive unit (incl. components)
  double lambda = 0.0;    // fault intensity added (non-test)
  double coverage = 0.0;  // test only
};

struct CompiledFlow {
  std::vector<CompiledStep> steps;
  double nre = 0.0;
};

CompiledFlow compile_flow(const moe::FlowModel& flow) {
  CompiledFlow out;
  out.nre = flow.nre_total();
  out.steps.reserve(flow.steps().size());
  for (const moe::Step& s : flow.steps()) {
    CompiledStep cs;
    if (s.kind == moe::Step::Kind::Test) {
      cs.is_test = true;
      cs.cost = s.cost;
      cs.coverage = s.fault_coverage;
    } else {
      cs.cost = s.cost + s.cost_per_component * s.component_count() + s.component_cost();
      cs.lambda = s.added_fault_intensity();
    }
    out.steps.push_back(cs);
  }
  return out;
}

// Volume-independent outcome of one (build-up, corner) pair, per started
// unit.  The walk is the shared kernel with the corner's scalings applied:
// fault_scale on every injected intensity, cost_scale on every direct cost.
struct CornerOutcome {
  double spend = 0.0;  // expected spend per started unit
  double alive = 0.0;  // shipped fraction
};

// Scalar-spend instantiation of the shared walk kernel: no ledger, every
// booked cost multiplied by the corner's cost_scale, every injected
// intensity by its fault_scale.
struct CornerWalkPolicy {
  const ProcessCorner& corner;
  double spend = 0.0;

  static bool is_test(const CompiledStep& s) { return s.is_test; }
  static double coverage(const CompiledStep& s) { return s.coverage; }

  void book_test(const CompiledStep& s, double alive) {
    spend += alive * (corner.cost_scale * s.cost);
  }

  static double exp_value(double x) { return std::exp(x); }

  // build_flow flows never rework.
  static double rework(const CompiledStep& /*s*/, double /*detected*/) { return 0.0; }

  void on_scrapped(double /*scrapped*/) {}

  static const char* all_scrapped_message() {
    return "evaluate_scenario_grid: corner scraps the entire line";
  }

  void book_step(const CompiledStep& s, double alive) {
    spend += alive * (corner.cost_scale * s.cost);
  }

  double added_lambda(const CompiledStep& s) const {
    return corner.fault_scale * s.lambda;
  }
};

CornerOutcome walk_flow(const CompiledFlow& flow, const ProcessCorner& corner) {
  CornerWalkPolicy walk{corner};
  const WalkOutcome out = walk_flow_steps(flow.steps, walk);
  return {walk.spend, out.alive};
}

struct GridAccum {
  RunningStats stats;
  bool has = false;
  ScenarioCell best;
  ScenarioCell worst;
  std::vector<std::size_t> wins;
};

}  // namespace

ScenarioGridSummary evaluate_scenario_grid(const FunctionalBom& bom, const TechKits& kits,
                                           const ScenarioGrid& grid, unsigned threads) {
  require(!grid.buildups.empty(), "evaluate_scenario_grid: no build-ups");
  require(!grid.corners.empty(), "evaluate_scenario_grid: no process corners");
  require(!grid.volumes.empty(), "evaluate_scenario_grid: no volumes");
  for (const double v : grid.volumes) {
    require(v > 0.0, "evaluate_scenario_grid: volumes must be positive");
  }
  for (const ProcessCorner& c : grid.corners) {
    require(c.fault_scale >= 0.0, "evaluate_scenario_grid: fault_scale must be >= 0");
    require(c.cost_scale >= 0.0, "evaluate_scenario_grid: cost_scale must be >= 0");
  }
  const bool has_baselines = !grid.buildup_corners.empty();
  require(!has_baselines || grid.buildup_corners.size() == grid.buildups.size(),
          "evaluate_scenario_grid: buildup_corners must be empty or one per build-up");
  for (const ProcessCorner& c : grid.buildup_corners) {
    require(c.fault_scale >= 0.0 && c.cost_scale >= 0.0,
            "evaluate_scenario_grid: buildup_corners scales must be >= 0");
  }

  // Compile every build-up's flow once; the compiled models are read-only
  // from here on and shared by all workers.
  const std::size_t n_buildups = grid.buildups.size();
  const std::size_t n_volumes = grid.volumes.size();
  std::vector<CompiledFlow> compiled;
  compiled.reserve(n_buildups);
  for (const BuildUp& b : grid.buildups) {
    const AreaResult area = assess_area(bom, b, kits);
    compiled.push_back(compile_flow(build_flow(area, b)));
  }

  // One parallel item per corner: a worker walks each compiled flow once
  // per corner and then sweeps the whole volume axis in O(1) per cell —
  // shipped fraction and per-started spend do not depend on the volume,
  // only the NRE amortization does.
  const GridAccum acc = parallel_reduce<GridAccum>(
      grid.corners.size(), 1,
      [&](std::size_t /*chunk_index*/, std::size_t begin, std::size_t end) {
        GridAccum a;
        a.wins.assign(n_buildups, 0);
        std::vector<CornerOutcome> outcome(n_buildups);
        for (std::size_t c = begin; c < end; ++c) {
          for (std::size_t b = 0; b < n_buildups; ++b) {
            ProcessCorner corner = grid.corners[c];
            if (has_baselines) {
              corner.fault_scale *= grid.buildup_corners[b].fault_scale;
              corner.cost_scale *= grid.buildup_corners[b].cost_scale;
            }
            outcome[b] = walk_flow(compiled[b], corner);
          }
          for (std::size_t v = 0; v < n_volumes; ++v) {
            const double volume = grid.volumes[v];
            std::size_t win = 0;
            double win_cost = 0.0;
            for (std::size_t b = 0; b < n_buildups; ++b) {
              const double cost =
                  (outcome[b].spend + compiled[b].nre / volume) / outcome[b].alive;
              ScenarioCell cell;
              cell.cell = (c * n_volumes + v) * n_buildups + b;
              cell.buildup = b;
              cell.corner = c;
              cell.volume = v;
              cell.final_cost_per_shipped = cost;
              cell.shipped_fraction = outcome[b].alive;
              a.stats.add(cost);
              // Strict comparisons + ascending cell order = ties resolve to
              // the lowest cell index, independent of chunking.
              if (!a.has || cost < a.best.final_cost_per_shipped) a.best = cell;
              if (!a.has || cost > a.worst.final_cost_per_shipped) a.worst = cell;
              a.has = true;
              if (b == 0 || cost < win_cost) {
                win = b;
                win_cost = cost;
              }
            }
            ++a.wins[win];
          }
        }
        return a;
      },
      [&](GridAccum& total, GridAccum&& part) {
        if (part.wins.empty()) return;  // untouched partial
        total.stats.merge(part.stats);
        if (total.wins.empty()) total.wins.assign(n_buildups, 0);
        for (std::size_t b = 0; b < n_buildups; ++b) total.wins[b] += part.wins[b];
        if (part.has) {
          if (!total.has ||
              part.best.final_cost_per_shipped < total.best.final_cost_per_shipped) {
            total.best = part.best;
          }
          if (!total.has ||
              part.worst.final_cost_per_shipped > total.worst.final_cost_per_shipped) {
            total.worst = part.worst;
          }
          total.has = true;
        }
      },
      threads);

  ScenarioGridSummary summary;
  summary.cells = grid.cell_count();
  summary.best = acc.best;
  summary.worst = acc.worst;
  summary.cost_mean = acc.stats.mean();
  summary.cost_stddev = acc.stats.stddev();
  summary.wins_per_buildup = acc.wins;
  return summary;
}

std::string ScenarioGridSummary::to_string(const ScenarioGrid& grid) const {
  std::string out = strf("Scenario grid: %zu cells (%zu build-ups x %zu corners x %zu volumes)\n",
                         cells, grid.buildups.size(), grid.corners.size(),
                         grid.volumes.size());
  out += strf("  cost/shipped: mean %.2f, stddev %.2f\n", cost_mean, cost_stddev);
  out += strf("  best:  %s, corner %zu, volume %.0f -> %.2f\n",
              grid.buildups[best.buildup].name.c_str(), best.corner,
              grid.volumes[best.volume], best.final_cost_per_shipped);
  out += strf("  worst: %s, corner %zu, volume %.0f -> %.2f\n",
              grid.buildups[worst.buildup].name.c_str(), worst.corner,
              grid.volumes[worst.volume], worst.final_cost_per_shipped);
  for (std::size_t b = 0; b < wins_per_buildup.size(); ++b) {
    out += strf("  wins[%s]: %zu\n", grid.buildups[b].name.c_str(), wins_per_buildup[b]);
  }
  return out;
}

}  // namespace ipass::core
