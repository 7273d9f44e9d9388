// Step 4 of the methodology: "calculate the cost including test and yield
// aspects" — translate a build-up plus its realized BOM into a MOE
// production flow (Fig 4) and evaluate it.
#pragma once

#include <cstddef>
#include <memory>

#include "core/area_assess.hpp"
#include "core/buildup.hpp"
#include "moe/analytic.hpp"
#include "moe/flow.hpp"
#include "moe/montecarlo.hpp"

namespace ipass::core {

// Construct the production flow for a build-up whose area assessment is
// already known (the substrate cost depends on the substrate area).
// Throws PreconditionError for SMDs on the laminate of a build-up that
// uses none (smd_on_laminate without uses_laminate).
moe::FlowModel build_flow(const AreaResult& area, const BuildUp& buildup);

struct CostAssessment {
  moe::FlowModel flow;
  moe::CostReport report;          // analytic evaluation (exact expectation)
};

CostAssessment assess_cost(const AreaResult& area, const BuildUp& buildup);

// Monte-Carlo counterpart (used by Fig-4 unit-count reproduction and the
// MC-vs-analytic ablation).
moe::McReport assess_cost_monte_carlo(const AreaResult& area, const BuildUp& buildup,
                                      const moe::McOptions& options = {});

// ---------------------------------------------------------------------------
// Batched path: everything build_flow() derives from sources *other* than
// the build-up's ProductionData, captured once.  build_flow() itself is
// this model plus the build-up's names, so both paths emit their steps
// from one flow description (emit_flow in cost_assess.cpp).  A parameter
// sweep then re-costs the same physical build-up under W different
// ProductionData vectors without reconstructing a FlowModel (no strings,
// no vectors, no per-evaluation allocation at all).
struct CompiledCostModel {
  double substrate_cost = 0.0;      // mm2_to_cm2(substrate area) * cost/cm2
  double substrate_fab_yield = 1.0;
  bool integrated_passive_steps = false;  // the structural Fig-4 steps
  tech::DieAttach die_attach = tech::DieAttach::PackagedSmt;
  int bond_count = 0;               // wire bonds; 0 unless wire-bonded
  int smd_count = 0;
  double smd_parts_cost = 0.0;
  bool uses_laminate = false;
  bool smd_on_laminate = false;
};

CompiledCostModel compile_cost_model(const AreaResult& area, const BuildUp& buildup);

// The numeric core of a CostReport: what the batched assessment pipeline
// keeps per (sweep point, build-up).
struct CostSummary {
  double volume = 0.0;
  double shipped_fraction = 0.0;
  double shipped_units = 0.0;
  double good_fraction = 0.0;
  double escaped_defect_rate = 0.0;
  double direct_cost = 0.0;
  double chip_cost_direct = 0.0;
  double yield_loss_per_shipped = 0.0;
  double nre_per_shipped = 0.0;
  double final_cost_per_shipped = 0.0;
  double total_spend_per_started = 0.0;
};

// Cost a compiled model under one ProductionData vector.  Every field is
// bit-identical to evaluate_analytic(build_flow(area, b')) where b' is the
// compiled build-up with its production data replaced by `pd` — the golden
// and pipeline-equivalence tests enforce this down to the last ulp.
// (Implemented as a one-lane call of the batched path below.)
CostSummary evaluate_compiled_cost(const CompiledCostModel& model, const ProductionData& pd);

// ---------------------------------------------------------------------------
// Batched walk: cost W (model, production-data) lanes per call.
//
// Each lane's flow is emitted by the same emitter as build_flow() into a
// fixed-size step array (the flattening CornerWalk below reads too) and
// walked through the shared flow-walk kernel — so every lane is
// bit-identical to its scalar evaluate_compiled_cost() call, and the batch
// split never changes a bit.  The lanes of a call share memoized log/exp
// results, keyed on exact argument bits.

// The assessment pipeline's chunk width: how many points it hands to one
// batched call.
inline constexpr std::size_t kCostBatchLanes = 8;

// One lane of a batched evaluation.  Models may differ across lanes (a
// sensitivity sweep perturbs the compiled substrate cost/yield per lane).
struct CostEvalPoint {
  const CompiledCostModel* model = nullptr;
  const ProductionData* pd = nullptr;
};

// Cost `n` lanes, writing out[i] for points[i].  Any n is accepted.
void evaluate_compiled_cost_batch(const CostEvalPoint* points, std::size_t n,
                                  CostSummary* out);

// ---------------------------------------------------------------------------
// Corner walk (the scenario grid).

// One process corner: multiplicative scalings applied to a compiled flow.
// fault_scale multiplies every step's fault intensity (lambda = -ln y, so
// 2.0 squares each step yield and 0.0 models a perfect line); cost_scale
// multiplies every direct cost booked along the line (steps and consumed
// components alike).  NRE is scenario overhead, not a line cost, and is
// left unscaled.
struct ProcessCorner {
  double fault_scale = 1.0;
  double cost_scale = 1.0;
};

// Throws PreconditionError naming scope, name and field unless both scales
// are finite and non-negative (a negative fault_scale raises yields above
// 1; an infinite scale makes 0 * inf on a zero-cost step a NaN).
void check_corner(const ProcessCorner& corner, const char* scope, const char* name = nullptr);

// Per started unit, independent of the volume.
struct CornerOutcome {
  double spend = 0.0;  // expected spend
  double alive = 0.0;  // shipped fraction
};

// The flow of (model, pd), flattened once by the batched walk's emitter and
// walked under any corner composed with `baseline` (scales multiplied).
// Its spend sum agrees with the ledger walk's only to rounding.
class CornerWalk {
 public:
  CornerWalk(const CompiledCostModel& model, const ProductionData& pd,
             const ProcessCorner& baseline);
  CornerWalk(CornerWalk&&) noexcept;
  ~CornerWalk();

  // Throws InvariantError when the corner scraps the entire line.
  CornerOutcome operator()(const ProcessCorner& corner) const;

 private:
  struct Steps;
  std::unique_ptr<Steps> steps_;
  ProcessCorner baseline_;
};

}  // namespace ipass::core
