#include "core/methodology.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/strfmt.hpp"
#include "common/table.hpp"

namespace ipass::core {

namespace {

// Opt-in per-phase wall-time profiling (metrics::set_profiling_enabled).
// Disabled, each hook site costs one relaxed atomic load and never reads the
// clock; enabled, phase durations land in the global histograms below.  The
// refs resolve lazily on the first *enabled* hit so a process that never
// profiles never registers them.  The MNA sweeps time themselves
// (core_profile_mna_sweeps_ns, inside assess_performance), so a sweep that
// a cache tier runs outside compile_study is profiled too.
struct ProfileMetrics {
  metrics::Histogram& area;           // assess_area
  metrics::Histogram& cost_flatten;   // compile_cost_model
  metrics::Histogram& batch_walk;     // evaluate() batch walk

  static ProfileMetrics& instance() {
    auto& r = metrics::global_metrics();
    static ProfileMetrics m{
        r.histogram("core_profile_area_ns"),
        r.histogram("core_profile_cost_flatten_ns"),
        r.histogram("core_profile_batch_walk_ns"),
    };
    return m;
  }
};

}  // namespace

DecisionReport assess(const FunctionalBom& bom, const std::vector<BuildUp>& buildups,
                      const TechKits& kits, const FomWeights& weights) {
  AssessmentInputs inputs;
  inputs.weights = weights;
  return AssessmentPipeline(bom, buildups, kits).report(inputs);
}

std::shared_ptr<const CompiledStudy> compile_study(const FunctionalBom& bom,
                                                   std::vector<BuildUp> buildups,
                                                   const TechKits& kits,
                                                   PipelineScope scope,
                                                   StudyParts given) {
  require(!buildups.empty(), "assess: need at least one build-up");
  const std::size_t n = buildups.size();
  require(given.performance.size() <= n,
          "compile_study: more given performance rows than build-ups");
  require(given.areas.size() <= n, "compile_study: more given areas than build-ups");
  auto study = std::make_shared<CompiledStudy>();
  study->buildups = std::move(buildups);
  study->scope = scope;
  study->performance.reserve(n);
  study->areas.reserve(n);
  study->compiled.reserve(n);
  const bool profiling = metrics::profiling_enabled();
  ProfileMetrics* prof = profiling ? &ProfileMetrics::instance() : nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    const BuildUp& b = study->buildups[i];
    if (scope == PipelineScope::CostOnly) {
      study->performance.emplace_back();
    } else if (i < given.performance.size()) {
      study->performance.push_back(std::move(given.performance[i]));
    } else {
      study->performance.push_back(assess_performance(bom, b, kits));
    }
    if (i < given.areas.size()) {
      study->areas.push_back(std::move(given.areas[i]));
    } else {
      metrics::ScopedTimer t(prof != nullptr ? &prof->area : nullptr);
      study->areas.push_back(assess_area(bom, b, kits));
    }
    {
      metrics::ScopedTimer t(prof != nullptr ? &prof->cost_flatten : nullptr);
      study->compiled.push_back(compile_cost_model(study->areas.back(), b));
    }
  }
  study->ref_area = study->areas.front().module_area_mm2();
  study->area_rel.reserve(study->buildups.size());
  for (const AreaResult& a : study->areas) {
    study->area_rel.push_back(a.module_area_mm2() / study->ref_area);
  }
  return study;
}

AssessmentPipeline::AssessmentPipeline(const FunctionalBom& bom,
                                       std::vector<BuildUp> buildups,
                                       const TechKits& kits, PipelineScope scope)
    : study_(compile_study(bom, std::move(buildups), kits, scope)) {}

AssessmentPipeline::AssessmentPipeline(std::shared_ptr<const CompiledStudy> study)
    : study_(std::move(study)) {
  require(study_ != nullptr && !study_->buildups.empty(),
          "AssessmentPipeline: need a compiled study");
}

const PerformanceResult& AssessmentPipeline::performance(std::size_t buildup) const {
  require(buildup < study_->buildups.size(),
          "AssessmentPipeline: build-up index out of range");
  require(study_->scope == PipelineScope::Full,
          "AssessmentPipeline: performance not compiled (CostOnly scope)");
  return study_->performance[buildup];
}

const AreaResult& AssessmentPipeline::area(std::size_t buildup) const {
  require(buildup < study_->buildups.size(),
          "AssessmentPipeline: build-up index out of range");
  return study_->areas[buildup];
}

DecisionReport AssessmentPipeline::report(const AssessmentInputs& inputs) const {
  const CompiledStudy& s = *study_;
  require(s.scope == PipelineScope::Full,
          "AssessmentPipeline: report() needs a Full-scope pipeline");
  require(inputs.production.empty() || inputs.production.size() == s.buildups.size(),
          "AssessmentPipeline: production vector must have one entry per build-up");
  require(inputs.models.empty(),
          "AssessmentPipeline: model overrides are a batched-path feature");

  DecisionReport report;
  report.weights = inputs.weights;
  for (std::size_t b = 0; b < s.buildups.size(); ++b) {
    BuildUp buildup = s.buildups[b];
    if (!inputs.production.empty()) buildup.production = inputs.production[b];
    CostAssessment cost = assess_cost(s.areas[b], buildup);
    report.assessments.push_back(BuildUpAssessment{
        std::move(buildup), s.performance[b], s.areas[b], std::move(cost.flow),
        std::move(cost.report), 1.0, 1.0, 0.0});
  }

  const BuildUpAssessment& ref = report.assessments[report.reference];
  const double ref_area = ref.area.module_area_mm2();
  const double ref_cost = ref.cost.final_cost_per_shipped;
  ensure(ref_area > 0.0 && ref_cost > 0.0, "assess: degenerate reference build-up");

  for (BuildUpAssessment& a : report.assessments) {
    a.area_rel = a.area.module_area_mm2() / ref_area;
    a.cost_rel = a.cost.final_cost_per_shipped / ref_cost;
    a.fom = figure_of_merit(a.performance.score, a.area_rel, a.cost_rel, inputs.weights);
  }

  report.winner = 0;
  for (std::size_t i = 1; i < report.assessments.size(); ++i) {
    if (report.assessments[i].fom > report.assessments[report.winner].fom) {
      report.winner = i;
    }
  }
  return report;
}

void AssessmentPipeline::evaluate_chunk(const AssessmentInputs* points, std::size_t count,
                                        BuildUpSummary* out, std::size_t* winners) const {
  const CompiledStudy& study = *study_;
  const std::size_t n = study.buildups.size();

  // Cost the chunk build-up by build-up: the chunk's points form the lanes
  // of one batch walk (out is point-major, so lane w's summary lands at
  // out[w * n + b]).  All mutable state is on this stack frame — the shared
  // CompiledStudy is only read, so any number of threads (and any number of
  // pipelines wrapping the same study) can run chunks concurrently.
  CostEvalPoint lanes[kCostBatchLanes];
  CostSummary costs[kCostBatchLanes];
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t w = 0; w < count; ++w) {
      const AssessmentInputs& point = points[w];
      lanes[w].model =
          point.models.empty() ? &study.compiled[b] : &point.models[b];
      lanes[w].pd = point.production.empty() ? &study.buildups[b].production
                                             : &point.production[b];
    }
    evaluate_compiled_cost_batch(lanes, count, costs);
    for (std::size_t w = 0; w < count; ++w) {
      BuildUpSummary& s = out[w * n + b];
      s.performance = study.performance[b].score;
      s.module_area_mm2 = study.areas[b].module_area_mm2();
      s.area_rel = study.area_rel[b];
      s.shipped_fraction = costs[w].shipped_fraction;
      s.direct_cost = costs[w].direct_cost;
      s.chip_cost_direct = costs[w].chip_cost_direct;
      s.yield_loss_per_shipped = costs[w].yield_loss_per_shipped;
      s.nre_per_shipped = costs[w].nre_per_shipped;
      s.final_cost_per_shipped = costs[w].final_cost_per_shipped;
    }
  }

  for (std::size_t w = 0; w < count; ++w) {
    BuildUpSummary* point_out = out + w * n;
    const double ref_cost = point_out[0].final_cost_per_shipped;
    ensure(study.ref_area > 0.0 && ref_cost > 0.0,
           "assess: degenerate reference build-up");
    for (std::size_t b = 0; b < n; ++b) {
      point_out[b].cost_rel = point_out[b].final_cost_per_shipped / ref_cost;
      point_out[b].fom = figure_of_merit(point_out[b].performance, point_out[b].area_rel,
                                         point_out[b].cost_rel, points[w].weights);
    }
    std::size_t winner = 0;
    for (std::size_t b = 1; b < n; ++b) {
      if (point_out[b].fom > point_out[winner].fom) winner = b;
    }
    winners[w] = winner;
  }
}

BatchAssessmentResult AssessmentPipeline::evaluate(
    const std::vector<AssessmentInputs>& points, unsigned threads) const {
  const std::size_t n_b = study_->buildups.size();
  for (const AssessmentInputs& p : points) {
    require(p.production.empty() || p.production.size() == n_b,
            "AssessmentPipeline: production vector must have one entry per build-up");
    require(p.models.empty() || p.models.size() == n_b,
            "AssessmentPipeline: models vector must have one entry per build-up");
  }

  BatchAssessmentResult out;
  out.points = points.size();
  out.buildups = n_b;
  out.summaries.resize(points.size() * n_b);
  out.winners.resize(points.size());
  if (points.empty()) return out;

  // Chunked fan-out; each worker costs its whole chunk through the
  // batch walk (the chunk's points are the lanes).  Every output slot
  // depends only on its own point and every lane is bit-identical to its
  // scalar evaluation, so the thread count, the chunking AND the way a
  // sweep is split into evaluate() calls leave the results bit-identical.
  constexpr std::size_t kChunk = kCostBatchLanes;
  const std::size_t n_chunks = (points.size() + kChunk - 1) / kChunk;
  metrics::ScopedTimer walk_timer(
      metrics::profiling_enabled() ? &ProfileMetrics::instance().batch_walk
                                   : nullptr);
  ThreadPool::shared(threads).parallel_for(n_chunks, [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    const std::size_t end = std::min(points.size(), begin + kChunk);
    evaluate_chunk(points.data() + begin, end - begin, &out.summaries[begin * n_b],
                   &out.winners[begin]);
  });
  return out;
}

BuildUpSummary summarize(const BuildUpAssessment& a) {
  BuildUpSummary s;
  s.performance = a.performance.score;
  s.module_area_mm2 = a.area.module_area_mm2();
  s.area_rel = a.area_rel;
  s.shipped_fraction = a.cost.shipped_fraction;
  s.direct_cost = a.cost.direct_cost;
  s.chip_cost_direct = a.cost.chip_cost_direct();
  s.yield_loss_per_shipped = a.cost.yield_loss_per_shipped;
  s.nre_per_shipped = a.cost.nre_per_shipped;
  s.final_cost_per_shipped = a.cost.final_cost_per_shipped;
  s.cost_rel = a.cost_rel;
  s.fom = a.fom;
  return s;
}

CalibrationSweepSummary sweep_calibration_inputs(const AssessmentPipeline& pipeline,
                                                 const std::vector<AssessmentInputs>& points,
                                                 unsigned threads) {
  require(!points.empty(), "sweep_calibration_inputs: need at least one point");
  CalibrationSweepSummary summary;
  summary.results = pipeline.evaluate(points, threads);
  summary.wins_per_buildup.assign(pipeline.buildup_count(), 0);
  bool has_best = false;
  for (std::size_t p = 0; p < summary.results.points; ++p) {
    const std::size_t w = summary.results.winners[p];
    ++summary.wins_per_buildup[w];
    const double fom = summary.results.at(p, w).fom;
    if (!has_best || fom > summary.best_fom) {
      summary.best_point = p;
      summary.best_fom = fom;
      has_best = true;
    }
  }
  return summary;
}

std::string DecisionReport::to_table() const {
  TextTable t({"build-up", "Perf.", "Size", "Cost", "FoM"});
  for (std::size_t c = 1; c <= 4; ++c) t.align_right(c);
  for (const BuildUpAssessment& a : assessments) {
    t.add_row({strf("(%d) %s", a.buildup.index, a.buildup.name.c_str()),
               strf("%.2f", a.performance.score), strf("1/%.2f", a.area_rel),
               strf("1/%.2f", a.cost_rel), strf("%.2f", a.fom)});
  }
  const BuildUpAssessment& w = assessments[winner];
  std::string out = t.to_string();
  out += strf("winner: (%d) %s with FoM %.2f\n", w.buildup.index, w.buildup.name.c_str(),
              w.fom);
  return out;
}

std::string DecisionReport::area_bars() const {
  std::string out;
  for (const BuildUpAssessment& a : assessments) {
    out += strf("%d: %-24s |%s| %3.0f%%  (%.0f mm^2)\n", a.buildup.index,
                a.buildup.name.c_str(), text_bar(a.area_rel, 40).c_str(),
                a.area_rel * 100.0, a.area.module_area_mm2());
  }
  return out;
}

std::string DecisionReport::cost_bars() const {
  const double ref = assessments[reference].cost.final_cost_per_shipped;
  std::string out;
  for (const BuildUpAssessment& a : assessments) {
    const moe::CostReport& c = a.cost;
    const double direct = (c.direct_cost + c.nre_per_shipped) / ref;
    const double chips = c.chip_cost_direct() / ref;
    const double yield_loss = c.yield_loss_per_shipped / ref;
    out += strf("%d: %-24s final %6.1f%%  = direct %5.1f%% (thereof chips %5.1f%%) + yield loss %4.1f%%\n",
                a.buildup.index, a.buildup.name.c_str(), a.cost_rel * 100.0,
                direct * 100.0, chips * 100.0, yield_loss * 100.0);
  }
  return out;
}

}  // namespace ipass::core
