// google-benchmark micro-benchmarks of the compute engines: MNA solves,
// elliptic synthesis, Monte-Carlo cost simulation and the full methodology,
// plus serial-vs-parallel and workspace-vs-naive engine comparisons.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/calibrate.hpp"
#include "core/methodology.hpp"
#include "core/pareto.hpp"
#include "core/partition.hpp"
#include "core/scenario_grid.hpp"
#include "core/sensitivity.hpp"
#include "gps/bom.hpp"
#include "gps/casestudy.hpp"
#include "gps/published.hpp"
#include "kits/fleet.hpp"
#include "kits/kit_json.hpp"
#include "kits/registry.hpp"
#include "moe/montecarlo.hpp"
#include "rf/analysis.hpp"
#include "rf/cauer.hpp"
#include "rf/mna.hpp"
#include "rf/tolerance.hpp"
#include "rf/transform.hpp"
#include "serve/service.hpp"

using namespace ipass;

namespace {

void BM_MnaAnalyzeBandpass(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const rf::Circuit ckt =
      rf::realize_bandpass(rf::chebyshev(n, 0.5), 175e6, 22e6, 50.0);
  double f = 150e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf::analyze_at(ckt, f));
    f += 1e3;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MnaAnalyzeBandpass)->Arg(2)->Arg(5)->Arg(9);

void BM_CauerSynthesis(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf::cauer_lowpass(n, 0.5, 1.5));
  }
}
BENCHMARK(BM_CauerSynthesis)->Arg(3)->Arg(5)->Arg(7);

moe::FlowModel gps_flow() {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const core::BuildUp& b = study.buildups[3];
  const core::AreaResult area = core::assess_area(study.bom, b, study.kits);
  return core::build_flow(area, b);
}

// Default threading (IPASS_THREADS / hardware concurrency).
void BM_MonteCarloCost(benchmark::State& state) {
  const moe::FlowModel flow = gps_flow();
  moe::McOptions opt;
  opt.samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(moe::evaluate_monte_carlo(flow, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonteCarloCost)->Arg(1000)->Arg(10000)->Arg(100000)->UseRealTime();

// Pinned to one thread: the serial baseline for the speedup ratio.
void BM_MonteCarloCostSerial(benchmark::State& state) {
  const moe::FlowModel flow = gps_flow();
  moe::McOptions opt;
  opt.samples = static_cast<std::size_t>(state.range(0));
  opt.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(moe::evaluate_monte_carlo(flow, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonteCarloCostSerial)->Arg(100000)->UseRealTime();

void BM_AnalyticCost(benchmark::State& state) {
  const moe::FlowModel flow = gps_flow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(moe::evaluate_analytic(flow));
  }
}
BENCHMARK(BM_AnalyticCost);

// ---- tolerance sweep: naive per-sample Circuit rebuild vs the workspace ----

rf::Circuit if_filter() {
  return rf::realize_bandpass(rf::chebyshev(2, 0.5), 175e6, 22e6, 50.0);
}

// The pre-workspace implementation: deep-copy the Circuit and re-assemble a
// fresh MNA system for every sample, kept here as the regression baseline.
void BM_ToleranceSweepNaive(benchmark::State& state) {
  const rf::Circuit nominal = if_filter();
  const rf::ToleranceSpec tol = rf::ToleranceSpec::integrated_untrimmed();
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Pcg32 rng(42);
    std::size_t passing = 0;
    for (std::size_t i = 0; i < n; ++i) {
      rf::Circuit instance = nominal;
      for (std::size_t e = 0; e < instance.elements().size(); ++e) {
        const double t = tol.for_kind(instance.elements()[e].kind);
        if (t <= 0.0) continue;
        const double rel = std::clamp(rng.normal(0.0, t / 3.0), -t, t);
        instance.scale_element_value(e, 1.0 + rel);
      }
      if (rf::insertion_loss_at(instance, 175e6) < 1.0) ++passing;
    }
    benchmark::DoNotOptimize(passing);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ToleranceSweepNaive)->Arg(2000)->UseRealTime();

// Single-threaded scalar-workspace engine (the pre-batch fast path),
// kept as the engine-tier comparison point.
void BM_ToleranceSweepScalar(benchmark::State& state) {
  const rf::Circuit nominal = if_filter();
  const rf::ToleranceSpec tol = rf::ToleranceSpec::integrated_untrimmed();
  rf::ToleranceOptions opt;
  opt.samples = static_cast<std::size_t>(state.range(0));
  opt.threads = 1;
  const rf::WorkspaceMetric il = [](rf::SweepWorkspace& ws) {
    return ws.insertion_loss_at(175e6);
  };
  const auto passes = [](double worst) { return worst <= 1.0; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf::analyze_tolerance_fast(nominal, tol, il, passes, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ToleranceSweepScalar)->Arg(2000)->UseRealTime();

// Single-threaded batched engine (bandpass_parametric_yield rides the
// W-lane BatchSweepWorkspace): the headline single-thread number.
void BM_ToleranceSweepWorkspace(benchmark::State& state) {
  const rf::Circuit nominal = if_filter();
  const rf::ToleranceSpec tol = rf::ToleranceSpec::integrated_untrimmed();
  rf::ToleranceOptions opt;
  opt.samples = static_cast<std::size_t>(state.range(0));
  opt.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf::bandpass_parametric_yield(nominal, tol, 175e6, 1.0, 0.0, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ToleranceSweepWorkspace)->Arg(2000)->UseRealTime();

// Workspace path at the default thread count: the full engine.
void BM_ToleranceSweepParallel(benchmark::State& state) {
  const rf::Circuit nominal = if_filter();
  const rf::ToleranceSpec tol = rf::ToleranceSpec::integrated_untrimmed();
  rf::ToleranceOptions opt;
  opt.samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf::bandpass_parametric_yield(nominal, tol, 175e6, 1.0, 0.0, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ToleranceSweepParallel)->Arg(2000)->UseRealTime();

// ---- frequency sweep: per-point assembly vs the reusable workspace ----

void BM_MnaSweepNaive(benchmark::State& state) {
  const rf::Circuit ckt = if_filter();
  const std::vector<double> freqs = rf::linspace(150e6, 200e6, 201);
  for (auto _ : state) {
    for (const double f : freqs) benchmark::DoNotOptimize(rf::analyze_at(ckt, f));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(freqs.size()));
}
BENCHMARK(BM_MnaSweepNaive);

void BM_MnaSweepWorkspace(benchmark::State& state) {
  const rf::Circuit ckt = if_filter();
  const std::vector<double> freqs = rf::linspace(150e6, 200e6, 201);
  rf::SweepWorkspace ws(ckt);
  for (auto _ : state) {
    for (const double f : freqs) benchmark::DoNotOptimize(ws.analyze_at(f));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(freqs.size()));
}
BENCHMARK(BM_MnaSweepWorkspace);

void BM_FullGpsAssessment(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gps::run_gps_assessment(study));
  }
}
BENCHMARK(BM_FullGpsAssessment);

// ---- batched GPS assessment: W calibration-input points per call ----

std::vector<gps::GpsSweepPoint> gps_sweep_points(const gps::GpsCaseStudy& study,
                                                 std::size_t n) {
  std::vector<gps::GpsSweepPoint> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i].confidential = study.confidential;
    points[i].confidential.rf_chip_bare = 15.0 + 0.5 * static_cast<double>(i % 11);
    points[i].confidential.dsp_bare = 26.0 + 0.75 * static_cast<double>(i % 7);
    points[i].confidential.nre_mcm_ip = 30000.0 + 2500.0 * static_cast<double>(i % 13);
  }
  return points;
}

// The pre-pipeline way to sweep W calibration inputs: rebuild the study and
// run the full assessment per point.  The ratio against BM_GpsAssessment is
// the headline speedup of this engine tier.
void BM_GpsAssessmentSerial(benchmark::State& state) {
  const gps::GpsCaseStudy base = gps::make_gps_case_study();
  const std::vector<gps::GpsSweepPoint> points =
      gps_sweep_points(base, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const gps::GpsSweepPoint& p : points) {
      const gps::GpsCaseStudy study = gps::make_gps_case_study(p.confidential, p.semantics);
      benchmark::DoNotOptimize(gps::run_gps_assessment(study, p.weights));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GpsAssessmentSerial)->Arg(64)->UseRealTime();

// Batched pipeline, pinned to one thread.  The one-time compile (performance
// + area + flow flattening) is timed too: this is the full cost of a sweep.
void BM_GpsAssessment(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const std::vector<gps::GpsSweepPoint> points =
      gps_sweep_points(study, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const core::AssessmentPipeline pipeline = gps::make_gps_pipeline(study);
    benchmark::DoNotOptimize(gps::run_gps_assessment_batched(pipeline, points, 1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GpsAssessment)->Arg(64)->Arg(1024)->UseRealTime();

// Compiled pipeline at the default thread count, compile amortized away:
// the steady-state sweep throughput (points/s).
void BM_GpsAssessmentParallel(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const core::AssessmentPipeline pipeline = gps::make_gps_pipeline(study);
  const std::vector<gps::GpsSweepPoint> points =
      gps_sweep_points(study, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gps::run_gps_assessment_batched(pipeline, points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GpsAssessmentParallel)->Arg(1024)->Arg(16384)->UseRealTime();

// Steady-state per-point cost of the batch walk: prebuilt inputs, the
// compile amortized away, pinned to one thread.  This is the µs/point
// number the ROADMAP tracks.
void BM_GpsAssessmentEvaluate(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const core::AssessmentPipeline pipeline = gps::make_gps_pipeline(study);
  const std::vector<gps::GpsSweepPoint> points =
      gps_sweep_points(study, static_cast<std::size_t>(state.range(0)));
  std::vector<core::AssessmentInputs> inputs;
  inputs.reserve(points.size());
  for (const gps::GpsSweepPoint& p : points) inputs.push_back(gps::gps_assessment_inputs(p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.evaluate(inputs, 1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GpsAssessmentEvaluate)->Arg(1024)->UseRealTime();

// ---- sensitivity: per-perturbation re-assessment vs the batched pipeline ----

// The pre-pipeline implementation of cost_sensitivity: realize the area and
// rebuild + walk the full production flow for every perturbed build-up.
// Kept as the engine-tier comparison point.
void BM_SensitivitySerial(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const core::BuildUp& buildup = study.buildups[3];
  const std::vector<core::SensitivityInput> inputs = core::standard_inputs();
  for (auto _ : state) {
    auto final_cost = [&](const core::BuildUp& b) {
      const core::AreaResult area = core::assess_area(study.bom, b, study.kits);
      return core::assess_cost(area, b).report.final_cost_per_shipped;
    };
    const double base = final_cost(buildup);
    double acc = base;
    for (const core::SensitivityInput& input : inputs) {
      acc += final_cost(input.perturb(buildup, 0.05));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(inputs.size() + 1));
}
BENCHMARK(BM_SensitivitySerial)->UseRealTime();

// Pipeline-backed cost_sensitivity (area realized once, every perturbation
// one compiled-cost lane), pinned to one thread.
void BM_Sensitivity(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  core::SensitivityOptions opt;
  opt.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::cost_sensitivity(study.bom, study.buildups[3], study.kits, opt));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(core::standard_inputs().size() + 1));
}
BENCHMARK(BM_Sensitivity)->UseRealTime();

// ---- Pareto fronts over a sweep: full re-assessment vs the pipeline ----

// Per point: rebuild the case study, run the full assessment, analyze.
void BM_ParetoSerial(benchmark::State& state) {
  const gps::GpsCaseStudy base = gps::make_gps_case_study();
  const std::vector<gps::GpsSweepPoint> points =
      gps_sweep_points(base, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::size_t frontier = 0;
    for (const gps::GpsSweepPoint& p : points) {
      const gps::GpsCaseStudy study = gps::make_gps_case_study(p.confidential, p.semantics);
      const core::DecisionReport report = gps::run_gps_assessment(study, p.weights);
      for (const core::ParetoEntry& e : core::pareto_analysis(report)) {
        if (!e.dominated) ++frontier;
      }
    }
    benchmark::DoNotOptimize(frontier);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParetoSerial)->Arg(16)->UseRealTime();

// Pipeline-backed sweep (compile included, like BM_GpsAssessment), pinned
// to one thread.
void BM_Pareto(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const std::vector<gps::GpsSweepPoint> points =
      gps_sweep_points(study, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const core::AssessmentPipeline pipeline = gps::make_gps_pipeline(study);
    benchmark::DoNotOptimize(gps::run_gps_pareto_sweep(pipeline, points, 1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Pareto)->Arg(16)->Arg(256)->UseRealTime();

// Whole-round batched coordinate descent against the Fig-5 cost targets on
// a compiled pipeline (the bench_calibration workload, engine tier only).
void BM_CalibrationSweep(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const core::AssessmentPipeline pipeline = gps::make_gps_pipeline(study);
  const auto published = gps::published_fig5_cost_ratio();

  const core::BatchObjective objective = [&](const std::vector<std::vector<double>>& pts,
                                             std::vector<double>& values) {
    std::vector<core::AssessmentInputs> inputs(pts.size());
    for (std::size_t k = 0; k < pts.size(); ++k) {
      gps::GpsSweepPoint point;
      point.confidential = study.confidential;
      point.confidential.rf_chip_packaged = pts[k][0];
      point.confidential.dsp_packaged = pts[k][1];
      point.confidential.rf_chip_bare = pts[k][2];
      point.confidential.dsp_bare = pts[k][3];
      inputs[k] = gps::gps_assessment_inputs(point);
    }
    const core::BatchAssessmentResult batch = pipeline.evaluate(inputs, 1);
    for (std::size_t k = 0; k < pts.size(); ++k) {
      double err = 0.0;
      for (std::size_t i = 1; i < 4; ++i) {
        const double d = batch.at(k, i).cost_rel - published[i];
        err += d * d;
      }
      values[k] = err;
    }
  };

  const std::vector<core::Parameter> params = {
      {"XX", 20.0, 5.0, 80.0, 2.0},
      {"ZZ", 30.0, 5.0, 120.0, 2.0},
      {"YY", 18.0, 5.0, 80.0, 2.0},
      {"AA", 26.0, 5.0, 120.0, 2.0},
  };
  core::CalibrationOptions opt;
  opt.max_rounds = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::calibrate_batched(params, objective, opt));
  }
}
BENCHMARK(BM_CalibrationSweep)->UseRealTime();

// ---- scenario-grid sharding: (build-up x process corner x volume) cells ----

core::ScenarioGrid make_grid(const gps::GpsCaseStudy& study, std::size_t cells) {
  core::ScenarioGrid grid;
  grid.buildups = study.buildups;  // 4 build-ups
  const std::size_t volumes = 500;
  const std::size_t corners = cells / (grid.buildups.size() * volumes);
  grid.corners = core::ScenarioGrid::corner_sweep(corners, 0.25, 4.0, 0.7, 1.3);
  grid.volumes = core::ScenarioGrid::volume_sweep(volumes, 1e3, 1e7);
  return grid;
}

// Pinned to one thread: the serial cells/s number the CI gate tracks.
void BM_ScenarioGrid(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const core::ScenarioGrid grid =
      make_grid(study, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_scenario_grid(study.bom, study.kits, grid, 1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(grid.cell_count()));
}
BENCHMARK(BM_ScenarioGrid)->Arg(100000)->UseRealTime();

// ---- cross-kit fleet sweep: every built-in backend through both engines ----

// Pinned to one thread: the whole process-kit fleet (7 kits anchored on the
// PCB reference) swept over a 3x3 (corner x volume) scenario fleet through
// evaluate_scenario_grid AND pareto_sweep, with a per-kit DecisionReport.
// This is the kits-subsystem end-to-end number the CI gate tracks.
void BM_KitFleetSweep(benchmark::State& state) {
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  const std::vector<std::string> selection = registry.names();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  kits::KitSweepOptions options;
  options.reference = kits::kPcbFr4Kit;
  options.corners = core::ScenarioGrid::corner_sweep(3, 0.5, 2.0, 0.9, 1.1);
  options.volumes = core::ScenarioGrid::volume_sweep(3, 1e3, 1e6);
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kits::sweep_kits(registry, selection, bom, options));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(selection.size()));
}
BENCHMARK(BM_KitFleetSweep)->UseRealTime();

// ChipletPart-style partitioning: Bell(5) = 52 groupings of five blocks,
// each derived into a multi-die list and costed through the batched
// pipeline.  The chiplet-study end-to-end number the CI gate tracks.
void BM_PartitionSweep(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const core::AssessmentPipeline pipeline = gps::make_gps_pipeline(study);
  const std::vector<core::PartitionBlock> blocks = {
      {"rf-fe", 18.0, 30000.0},   {"correlator", 32.0, 45000.0},
      {"sram", 40.0, 20000.0},    {"pmic", 9.0, 12000.0},
      {"serdes", 14.0, 25000.0},
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::partition_sweep(pipeline, 1, blocks, {}, 1));
  }
  state.SetItemsProcessed(state.iterations() * 52);
}
BENCHMARK(BM_PartitionSweep)->UseRealTime();

// Default threading: the fan-out across the pool (scales with cores).
void BM_ScenarioGridParallel(benchmark::State& state) {
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const core::ScenarioGrid grid =
      make_grid(study, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_scenario_grid(study.bom, study.kits, grid));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(grid.cell_count()));
}
BENCHMARK(BM_ScenarioGridParallel)->Arg(100000)->Arg(1000000)->UseRealTime();

// ---- serving front-end: cached vs cold-compile request paths ----

// The steady-state request: the study is already compiled and cached, so a
// request pays parse + cache hit + one batched evaluation + response
// serialization.  This is the serving latency the CI gate tracks.
void BM_ServeRequestCached(benchmark::State& state) {
  serve::AssessmentService service;
  const std::string request = R"({"id": "bench", "kit_name": "mcm-d-si-ip"})";
  benchmark::DoNotOptimize(service.handle(request));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRequestCached)->UseRealTime();

// The cached request with the full observability stack on: per-request
// stage tracing into the ring, the service's counters and latency histograms,
// engine profiling hooks enabled, and a slow-request threshold armed (high
// enough never to fire, so the stderr path's enabled-check is measured, not
// the log itself).  The metrics/cached ratio is the observability tax the
// regression gate keeps under 5%.
void BM_ServeRequestCachedMetrics(benchmark::State& state) {
  serve::ServiceOptions options;
  options.slow_request_ms = 3600000;  // armed but never firing
  ipass::metrics::set_profiling_enabled(true);
  serve::AssessmentService service(options);
  const std::string request = R"({"id": "bench", "kit_name": "mcm-d-si-ip"})";
  benchmark::DoNotOptimize(service.handle(request));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle(request));
  }
  ipass::metrics::set_profiling_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRequestCachedMetrics)->UseRealTime();

// The cached request with the durability tax: every admission appends an
// admit record and every response a commit record (unbuffered write to the
// kernel, no fsync).  The journaled/cached ratio is what crash safety
// costs on the hot path.
void BM_ServeRequestJournaled(benchmark::State& state) {
  serve::ServiceOptions options;
  options.journal_path = "/tmp/ipass_bench_journal.wal";
  std::remove(options.journal_path.c_str());
  {
    serve::AssessmentService service(options);
    const std::string request = R"({"id": "bench", "kit_name": "mcm-d-si-ip"})";
    benchmark::DoNotOptimize(service.handle(request));  // warm the cache
    for (auto _ : state) {
      benchmark::DoNotOptimize(service.handle(request));
    }
    state.SetItemsProcessed(state.iterations());
  }
  std::remove(options.journal_path.c_str());
}
BENCHMARK(BM_ServeRequestJournaled)->UseRealTime();

// The cold path: a fresh service, so the first request compiles the study
// (MNA performance sweeps + area + cost-model flattening) before it can
// evaluate.  The cached/cold ratio is the cache's value proposition.
void BM_ServeRequestColdCompile(benchmark::State& state) {
  const std::string request = R"({"id": "bench", "kit_name": "mcm-d-si-ip"})";
  for (auto _ : state) {
    serve::AssessmentService service;
    benchmark::DoNotOptimize(service.handle(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRequestColdCompile)->UseRealTime();

// A study-cache miss on a kit whose electrical inputs are already known:
// each request carries an inline cost variant of mcm-d-si-ip (its own
// substrate cost, so its own study key), and the performance tier already
// holds every build-up's rows.  The request pays inline-kit parsing, area
// realization and cost flattening but no MNA sweep; next to
// BM_ServeRequestColdCompile it shows what the performance tier saves.
void BM_ServeRequestWarmKitMiss(benchmark::State& state) {
  serve::AssessmentService service;
  const kits::ProcessKit base = kits::builtin_kit_registry().at(kits::kMcmDSiIpKit);
  // More distinct studies than the study tier holds, so every one misses.
  constexpr std::size_t kVariants = 64;
  std::vector<std::string> requests;
  for (std::size_t i = 0; i < kVariants; ++i) {
    kits::ProcessKit kit = base;
    kit.substrate.cost_per_cm2 *= 1.0 + 0.001 * static_cast<double>(i + 1);
    requests.push_back("{\"id\": \"bench\", \"kit\": " + kits::kit_json(kit) + "}");
  }
  benchmark::DoNotOptimize(
      service.handle(R"({"id": "bench", "kit_name": "mcm-d-si-ip"})"));  // warm the rows
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle(requests[next]));
    next = (next + 1) % kVariants;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRequestWarmKitMiss)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
