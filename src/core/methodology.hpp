// The end-to-end assessment: performance, area, cost and figure of merit
// for a set of candidate build-ups, with the first build-up as the 100%
// reference (the paper's PCB solution).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/area_assess.hpp"
#include "core/buildup.hpp"
#include "core/cost_assess.hpp"
#include "core/fom.hpp"
#include "core/function_bom.hpp"
#include "core/perf_assess.hpp"

namespace ipass::core {

struct BuildUpAssessment {
  BuildUp buildup;
  PerformanceResult performance;
  AreaResult area;
  moe::FlowModel flow;
  moe::CostReport cost;
  double area_rel = 1.0;  // module area / reference module area
  double cost_rel = 1.0;  // final cost per shipped / reference
  double fom = 0.0;
};

struct DecisionReport {
  std::vector<BuildUpAssessment> assessments;
  std::size_t reference = 0;  // index of the 100% build-up
  std::size_t winner = 0;     // index of the highest figure of merit
  FomWeights weights;

  // Fig-6 style decision table.
  std::string to_table() const;
  // Fig-3 style area bars.
  std::string area_bars() const;
  // Fig-5 style cost bars with direct/yield-loss/chip breakdown.
  std::string cost_bars() const;
};

DecisionReport assess(const FunctionalBom& bom, const std::vector<BuildUp>& buildups,
                      const TechKits& kits, const FomWeights& weights = {});

// ---------------------------------------------------------------------------
// Batched assessment pipeline.
//
// assess() pays for performance simulation (MNA sweeps of every filter) and
// area realization on every call, although neither depends on the
// production-cost inputs a calibration sweep varies.  AssessmentPipeline
// compiles a case study once — performance and area resolved per build-up,
// each production flow flattened into a CompiledCostModel — and then costs
// W parameter vectors per evaluate() call with zero per-point allocation,
// fanned across the thread pool.  Results are bit-identical to assess()
// for every thread count and every batch split.

// One parameter vector of a sweep: per-build-up production data (empty =
// the compiled build-ups' own data) plus the decision weights.  A point may
// also override the compiled cost models themselves (one per build-up) —
// that is how sweeps vary inputs the pipeline captured at compile time,
// e.g. the substrate cost/yield a sensitivity analysis perturbs.  Model
// overrides are a batched-path feature (evaluate()); report() runs the
// full-fidelity FlowModel path and rejects them.
struct AssessmentInputs {
  std::vector<ProductionData> production;  // one entry per build-up, or empty
  std::vector<CompiledCostModel> models;   // one entry per build-up, or empty
  FomWeights weights;
};

// The numeric per-build-up outcome of one sweep point: everything the
// Fig 3/5/6 decision needs, as plain doubles.
struct BuildUpSummary {
  double performance = 0.0;
  double module_area_mm2 = 0.0;
  double area_rel = 1.0;
  double shipped_fraction = 0.0;
  double direct_cost = 0.0;
  double chip_cost_direct = 0.0;
  double yield_loss_per_shipped = 0.0;
  double nre_per_shipped = 0.0;
  double final_cost_per_shipped = 0.0;
  double cost_rel = 1.0;
  double fom = 0.0;
};

// The corresponding slice of a full DecisionReport (for equivalence checks
// and for promoting a sweep point to a report).
BuildUpSummary summarize(const BuildUpAssessment& assessment);

// Flat batch result: summaries[point * buildups + b].
struct BatchAssessmentResult {
  std::size_t points = 0;
  std::size_t buildups = 0;
  std::vector<BuildUpSummary> summaries;
  std::vector<std::size_t> winners;  // per point: index of the highest FoM

  const BuildUpSummary& at(std::size_t point, std::size_t buildup) const {
    return summaries[point * buildups + buildup];
  }
};

// What a pipeline compiles.  CostOnly skips the performance simulations
// (MNA sweeps of every filter) and leaves every build-up at the default
// performance score — for consumers that only read the cost outputs, like
// the sensitivity analysis, where compiling performance would dominate the
// sweep it accelerates.  report() and performance() require Full.
enum class PipelineScope { Full, CostOnly };

// The immutable compile artifact of a study: performance and area resolved
// per build-up (the MNA sweeps), each production flow flattened into a
// CompiledCostModel.  Everything per-request — parameter vectors, batch
// lanes, summaries — lives on the evaluator's stack, so one CompiledStudy
// can be shared (shared_ptr, e.g. from serve's keyed LRU cache) by any
// number of concurrent evaluations without synchronization.
struct CompiledStudy {
  std::vector<BuildUp> buildups;
  std::vector<PerformanceResult> performance;
  std::vector<AreaResult> areas;
  std::vector<CompiledCostModel> compiled;
  std::vector<double> area_rel;
  double ref_area = 0.0;
  PipelineScope scope = PipelineScope::Full;
};

// Per-build-up results a caller already holds (a cache tier, an earlier
// compile).  Each vector holds the rows of the study's first build-ups, in
// order, taken as given; compile_study computes the rows of the rest (all
// of them when the vector is empty).  The caller vouches that each given
// row equals assess_performance / assess_area of its build-up under the
// study's BOM and kits.  Performance rows are read under Full scope only.
struct StudyParts {
  std::vector<PerformanceResult> performance;
  std::vector<AreaResult> areas;
};

// Compiling runs the full performance and area assessment per build-up —
// as expensive as one assess() call — so compile once, evaluate often.
std::shared_ptr<const CompiledStudy> compile_study(
    const FunctionalBom& bom, std::vector<BuildUp> buildups, const TechKits& kits,
    PipelineScope scope = PipelineScope::Full, StudyParts given = {});

class AssessmentPipeline {
 public:
  // Compile-and-own convenience constructor.
  AssessmentPipeline(const FunctionalBom& bom, std::vector<BuildUp> buildups,
                     const TechKits& kits, PipelineScope scope = PipelineScope::Full);

  // Wrap an already-compiled (possibly cache-shared) study.  The pipeline
  // holds no other state: evaluations from several threads over the same
  // study are safe and bit-identical.
  explicit AssessmentPipeline(std::shared_ptr<const CompiledStudy> study);

  const std::shared_ptr<const CompiledStudy>& study() const { return study_; }

  std::size_t buildup_count() const { return study_->buildups.size(); }
  const std::vector<BuildUp>& buildups() const { return study_->buildups; }
  const PerformanceResult& performance(std::size_t buildup) const;
  const AreaResult& area(std::size_t buildup) const;

  // Full-fidelity scalar path: the DecisionReport assess() would produce
  // for the compiled build-ups with `inputs` applied (bit-identical to it;
  // assess() is implemented on top of this).
  DecisionReport report(const AssessmentInputs& inputs = {}) const;

  // Batched path: cost W parameter vectors.  Deterministic: any thread
  // count (0 = IPASS_THREADS / hardware) and any split of the same points
  // into several evaluate() calls produce bit-identical summaries.
  BatchAssessmentResult evaluate(const std::vector<AssessmentInputs>& points,
                                 unsigned threads = 0) const;

 private:
  // Cost `count` consecutive points (one lane batch per build-up) and
  // score them; out is point-major (count * buildup_count summaries).
  void evaluate_chunk(const AssessmentInputs* points, std::size_t count,
                      BuildUpSummary* out, std::size_t* winners) const;

  std::shared_ptr<const CompiledStudy> study_;
};

// Calibration-input sweep front-end: evaluate every point and aggregate the
// decision landscape (who wins where, and the strongest overall decision).
struct CalibrationSweepSummary {
  BatchAssessmentResult results;
  std::vector<std::size_t> wins_per_buildup;  // winner counts across points
  std::size_t best_point = 0;  // point with the highest winning FoM (ties: lowest index)
  double best_fom = 0.0;
};

CalibrationSweepSummary sweep_calibration_inputs(const AssessmentPipeline& pipeline,
                                                 const std::vector<AssessmentInputs>& points,
                                                 unsigned threads = 0);

}  // namespace ipass::core
