#include "kits/fleet.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "core/cost_assess.hpp"

namespace ipass::kits {

namespace {

// Corner semantics of core::evaluate_scenario_grid, applied to the
// pipeline's per-point parameter vector: lambda = -ln y, so scaling every
// fault intensity by f is raising every step yield to the power f; every
// direct line cost (steps and consumed components alike) is multiplied by
// the cost scale, while NRE stays unscaled.  fleet_scenario_points gates
// every corner through core::check_corner first, naming the build-up being
// scaled: with y in (0, 1], pow(y, f) stays a probability only for a
// finite f >= 0.

// Role dispatch for the field tables in core/buildup.hpp: one method per
// corner-scaling role.  corner_production() below iterates the tables
// instead of a hand-enumerated field list; buildup.hpp's static_asserts
// guarantee the tables cover every scalar member, so a new ProductionData
// or DieSpec field cannot silently escape corner scaling again.
struct CornerScaler {
  double f;                  // fault_scale
  double c;                  // cost_scale
  const std::string& scope;  // build-up name, for error messages
  const char* item;          // "" for top-level fields, "dies[i]." for dies

  void Cost(double& v, const char*) const { v *= c; }
  void Yield(double& v, const char* field) const {
    if (!(v > 0.0 && v <= 1.0)) {
      throw PreconditionError(strf(
          "fleet corner: build-up '%s': %s%s must be a yield in (0, 1], got %g",
          scope.c_str(), item, field, v));
    }
    v = std::pow(v, f);
  }
  void Coverage(double&, const char*) const {}  // probabilities: corners don't touch
  void Nre(double&, const char*) const {}       // scaled by neither axis
  void Volume(double&, const char*) const {}    // the scenario axis; set by caller
};

core::ProductionData corner_production(core::ProductionData pd,
                                       const core::ProcessCorner& corner,
                                       double volume, const std::string& scope) {
  const CornerScaler top{corner.fault_scale, corner.cost_scale, scope, ""};
#define IPASS_CORNER_FIELD(name, role) top.role(pd.name, #name);
  IPASS_PRODUCTION_SCALAR_FIELDS(IPASS_CORNER_FIELD)
#undef IPASS_CORNER_FIELD
  for (std::size_t i = 0; i < pd.dies.size(); ++i) {
    const std::string prefix = strf("dies[%zu].", i);
    const CornerScaler die_op{corner.fault_scale, corner.cost_scale, scope,
                              prefix.c_str()};
    core::DieSpec& d = pd.dies[i];
#define IPASS_CORNER_FIELD(name, role) die_op.role(d.name, #name);
    IPASS_DIE_SCALAR_FIELDS(IPASS_CORNER_FIELD)
#undef IPASS_CORNER_FIELD
  }
  pd.volume = volume;
  return pd;
}

// CompiledCostModel holds what build_flow derives from sources other than
// ProductionData; the corner touches its three monetary/yield knobs and
// deliberately leaves the six structural fields alone.  Those (die_attach,
// the step flags, bond_count and smd_count) decide which steps the flow
// has and how many lots they carry, and a corner scales costs and yields,
// never the flow's shape: corner_model scales neither die_attach nor
// bond_count.  The count below is asserted so a new CompiledCostModel
// member forces a decision here, mirroring the field-table guard above.
static_assert(ipass::core::detail::aggregate_field_count<core::CompiledCostModel>() ==
                  9,
              "CompiledCostModel gained a member: decide whether corner_model "
              "must scale it, then update this count");

core::CompiledCostModel corner_model(core::CompiledCostModel model,
                                     const core::ProcessCorner& corner,
                                     const std::string& scope) {
  const CornerScaler op{corner.fault_scale, corner.cost_scale, scope, ""};
  op.Cost(model.substrate_cost, "substrate_cost");
  op.Yield(model.substrate_fab_yield, "substrate_fab_yield");
  op.Cost(model.smd_parts_cost, "smd_parts_cost");
  return model;
}

core::ProcessCorner compose(const core::ProcessCorner& a, const core::ProcessCorner& b) {
  return core::ProcessCorner{a.fault_scale * b.fault_scale, a.cost_scale * b.cost_scale};
}

}  // namespace

std::vector<core::AssessmentInputs> fleet_scenario_points(
    const core::AssessmentPipeline& pipeline, const std::vector<core::ProcessCorner>& corners,
    const std::vector<double>& volumes, const core::FomWeights& weights,
    const std::vector<core::ProcessCorner>& baselines) {
  const std::size_t n = pipeline.buildup_count();
  const std::vector<core::BuildUp>& buildups = pipeline.buildups();
  require(baselines.empty() || baselines.size() == n,
          "fleet_scenario_points: baselines must be empty or one per build-up");

  const std::vector<core::CompiledCostModel>& base_models = pipeline.study()->compiled;

  std::vector<core::AssessmentInputs> points;
  points.reserve(corners.size() * volumes.size());
  for (const core::ProcessCorner& corner : corners) {
    for (const double volume : volumes) {
      core::AssessmentInputs point;
      point.weights = weights;
      point.production.reserve(n);
      point.models.reserve(n);
      for (std::size_t b = 0; b < n; ++b) {
        const core::ProcessCorner effective =
            baselines.empty() ? corner : compose(corner, baselines[b]);
        core::check_corner(effective, "fleet corner: build-up", buildups[b].name.c_str());
        point.production.push_back(
            corner_production(buildups[b].production, effective, volume,
                              buildups[b].name));
        point.models.push_back(corner_model(base_models[b], effective, buildups[b].name));
      }
      points.push_back(std::move(point));
    }
  }
  return points;
}

KitFleetSummary sweep_kits(const KitRegistry& registry,
                           const std::vector<std::string>& selection,
                           const core::FunctionalBom& bom,
                           const KitSweepOptions& options) {
  require(!selection.empty(), "sweep_kits: empty kit selection");
  require(!options.corners.empty(), "sweep_kits: need at least one process corner");
  const std::string reference_name =
      options.reference.empty() ? selection.front() : options.reference;
  const ProcessKit& reference = registry.at(reference_name);
  // The reference anchors every study's 100% numbers but is realized under
  // each swept kit's passive processes — it must not depend on them, or
  // the cross-kit comparison would measure against a different anchor per
  // study.  All-SMD variants are the ones with that property.
  for (const KitVariant& v : reference.variants) {
    require(v.policy == core::PassivePolicy::AllSmd,
            strf("sweep_kits: reference kit '%s' variant '%s' uses integrated "
                 "passives; the shared reference must be an all-SMD carrier",
                 reference.name.c_str(), v.name.c_str()));
  }

  KitFleetSummary fleet;
  fleet.kits.reserve(selection.size());
  // The reference rows do not depend on the kit (see above), so the first
  // study compiles them and every later study takes them as given.
  const std::size_t reference_rows = reference.variants.size();
  core::StudyParts reference_parts;

  for (const std::string& name : selection) {
    const ProcessKit& kit = registry.at(name);
    const bool is_reference = kit.name == reference.name;

    KitAssessment entry;
    entry.kit = kit.name;
    entry.maturity = kit.maturity;

    // The study: the shared reference build-ups first (the 100% anchor of
    // every relative number), then the kit's own variants.
    std::vector<core::BuildUp> buildups = make_buildups(reference);
    entry.own_offset = is_reference ? 0 : buildups.size();
    if (!is_reference) {
      for (const core::BuildUp& b :
           make_buildups(kit, static_cast<int>(buildups.size()) + 1)) {
        buildups.push_back(b);
      }
    }

    const core::AssessmentPipeline pipeline(core::compile_study(
        bom, buildups, apply_passives(kit), core::PipelineScope::Full, reference_parts));
    if (reference_parts.areas.empty()) {
      const core::CompiledStudy& study = *pipeline.study();
      reference_parts.performance.assign(study.performance.begin(),
                                         study.performance.begin() + reference_rows);
      reference_parts.areas.assign(study.areas.begin(),
                                   study.areas.begin() + reference_rows);
    }

    // Nominal operating point, full fidelity.
    core::AssessmentInputs nominal;
    nominal.weights = options.weights;
    entry.report = pipeline.report(nominal);

    // Scenario axes: the corner/volume grid is shared by every kit; the
    // kit's own corner baseline composes in per build-up, so only the
    // kit's own build-ups move with its line reality while the shared
    // reference rows stay the common anchor.  The volume axis defaults to
    // the kit's production volume.
    std::vector<core::ProcessCorner> baselines(buildups.size());
    for (std::size_t b = entry.own_offset; b < buildups.size(); ++b) {
      baselines[b] = kit.corner;
    }
    std::vector<double> volumes = options.volumes;
    if (volumes.empty()) {
      volumes.push_back(buildups[entry.own_offset].production.volume);
    }

    // Engine 1: the scenario-grid shards (cost landscape per cell), over
    // the pipeline's compiled study.
    entry.grid = core::evaluate_scenario_grid(*pipeline.study(), options.corners, volumes,
                                              baselines, options.threads);

    // Engine 2: the batched pipeline + Pareto frontier per scenario point.
    entry.pareto = core::pareto_sweep(
        pipeline,
        fleet_scenario_points(pipeline, options.corners, volumes, options.weights,
                              baselines),
        options.threads);

    // The kit's best own variant at the nominal point.
    entry.best_variant = entry.own_offset;
    for (std::size_t i = entry.own_offset; i < entry.report.assessments.size(); ++i) {
      if (entry.report.assessments[i].fom >
          entry.report.assessments[entry.best_variant].fom) {
        entry.best_variant = i;
      }
    }
    entry.best_fom = entry.report.assessments[entry.best_variant].fom;

    // Engine 3: optional chiplet-partitioning search against the kit's
    // best own build-up (deterministic for any thread count, like the
    // engines above).
    if (!options.partition_blocks.empty()) {
      entry.partition =
          core::partition_sweep(pipeline, entry.best_variant, options.partition_blocks,
                                options.partition_params, options.threads);
    }

    fleet.kits.push_back(std::move(entry));
  }

  fleet.winner = 0;
  for (std::size_t k = 1; k < fleet.kits.size(); ++k) {
    if (fleet.kits[k].best_fom > fleet.kits[fleet.winner].best_fom) fleet.winner = k;
  }
  return fleet;
}

std::string KitFleetSummary::to_table() const {
  std::string out = strf("%-20s %-12s %-28s %8s %8s %8s %6s %9s\n", "kit", "maturity",
                         "best variant", "FoM", "cost%", "area%", "wins", "frontier");
  for (std::size_t k = 0; k < kits.size(); ++k) {
    const KitAssessment& a = kits[k];
    const core::BuildUpAssessment& best = a.report.assessments[a.best_variant];
    // Scenario wins and frontier presence of the kit's own build-ups.  The
    // reference kit's study (own_offset == 0) has no competitors, so its
    // counts would be vacuously full — print '-' instead of a fake score.
    std::string wins = "-";
    std::string frontier = "-";
    if (a.own_offset > 0) {
      std::size_t w = 0;
      for (std::size_t b = a.own_offset; b < a.grid.wins_per_buildup.size(); ++b) {
        w += a.grid.wins_per_buildup[b];
      }
      std::size_t f = 0;
      for (std::size_t b = a.own_offset; b < a.pareto.frontier_counts.size(); ++b) {
        f += a.pareto.frontier_counts[b];
      }
      wins = strf("%zu", w);
      frontier = strf("%zu", f);
    }
    out += strf("%-20s %-12s %-28s %8.2f %8.1f %8.1f %6s %9s%s\n", a.kit.c_str(),
                kit_maturity_name(a.maturity), best.buildup.name.c_str(), a.best_fom,
                best.cost_rel * 100.0, best.area_rel * 100.0, wins.c_str(),
                frontier.c_str(), k == winner ? "  <- winner" : "");
  }
  return out;
}

}  // namespace ipass::kits
