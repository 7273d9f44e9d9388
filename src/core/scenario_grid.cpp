#include "core/scenario_grid.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/statistics.hpp"
#include "common/strfmt.hpp"
#include "core/methodology.hpp"

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

struct GridAccum {
  RunningStats stats;
  bool has = false;
  ScenarioCell best;
  ScenarioCell worst;
  std::vector<std::size_t> wins;
};

}  // namespace

ScenarioGridSummary evaluate_scenario_grid(const CompiledStudy& study,
                                           const std::vector<ProcessCorner>& corners,
                                           const std::vector<double>& volumes,
                                           const std::vector<ProcessCorner>& buildup_corners,
                                           unsigned threads) {
  require(!corners.empty(), "evaluate_scenario_grid: no process corners");
  require(!volumes.empty(), "evaluate_scenario_grid: no volumes");
  for (const double v : volumes) {
    require(v > 0.0, "evaluate_scenario_grid: volumes must be positive");
  }
  for (const ProcessCorner& c : corners) check_corner(c, "evaluate_scenario_grid: corners");
  const std::size_t n_buildups = study.buildups.size();
  require(buildup_corners.empty() || buildup_corners.size() == n_buildups,
          "evaluate_scenario_grid: buildup_corners must be empty or one per build-up");
  for (const ProcessCorner& c : buildup_corners) {
    check_corner(c, "evaluate_scenario_grid: buildup_corners");
  }

  // Flatten every build-up's compiled flow once; the walks are read-only
  // from here on and shared by all workers.
  const std::size_t n_volumes = volumes.size();
  std::vector<CornerWalk> walks;
  std::vector<double> nre(n_buildups);
  for (std::size_t b = 0; b < n_buildups; ++b) {
    const ProductionData& pd = study.buildups[b].production;
    walks.emplace_back(study.compiled[b], pd,
                       buildup_corners.empty() ? ProcessCorner{} : buildup_corners[b]);
    nre[b] = effective_nre(pd);
  }

  // One parallel item per corner: a worker walks each flow once per corner
  // and then sweeps the whole volume axis in O(1) per cell — shipped
  // fraction and per-started spend do not depend on the volume, only the
  // NRE amortization does.
  const GridAccum acc = parallel_reduce<GridAccum>(
      corners.size(), 1,
      [&](std::size_t /*chunk_index*/, std::size_t begin, std::size_t end) {
        GridAccum a;
        a.wins.assign(n_buildups, 0);
        std::vector<CornerOutcome> outcome(n_buildups);
        for (std::size_t c = begin; c < end; ++c) {
          for (std::size_t b = 0; b < n_buildups; ++b) outcome[b] = walks[b](corners[c]);
          for (std::size_t v = 0; v < n_volumes; ++v) {
            const double volume = volumes[v];
            std::size_t win = 0;
            double win_cost = 0.0;
            for (std::size_t b = 0; b < n_buildups; ++b) {
              const CornerOutcome& o = outcome[b];
              const double cost = (o.spend + nre[b] / volume) / o.alive;
              ScenarioCell cell;
              cell.cell = (c * n_volumes + v) * n_buildups + b;
              cell.buildup = b;
              cell.corner = c;
              cell.volume = v;
              cell.final_cost_per_shipped = cost;
              cell.shipped_fraction = o.alive;
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
  summary.cells = n_buildups * corners.size() * n_volumes;
  summary.best = acc.best;
  summary.worst = acc.worst;
  summary.cost_mean = acc.stats.mean();
  summary.cost_stddev = acc.stats.stddev();
  summary.wins_per_buildup = acc.wins;
  return summary;
}

ScenarioGridSummary evaluate_scenario_grid(const FunctionalBom& bom, const TechKits& kits,
                                           const ScenarioGrid& grid, unsigned threads) {
  const auto study = compile_study(bom, grid.buildups, kits, PipelineScope::CostOnly);
  return evaluate_scenario_grid(*study, grid.corners, grid.volumes, grid.buildup_corners,
                                threads);
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
