// study-batch: one offline trade-study batch through the library's public
// calls, repeated for the measured window.
//
// Correctness: a one-thread reference batch is computed first (untimed) and
// the digest of every seed-independent call is compared with the digest
// pinned in digests.txt; every timed batch must then reproduce the
// reference bit for bit (the engines are thread-invariant, so one
// reference covers every thread count).
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "core/calibrate.hpp"
#include "core/cost_assess.hpp"
#include "core/methodology.hpp"
#include "core/pareto.hpp"
#include "core/partition.hpp"
#include "core/scenario_grid.hpp"
#include "core/sensitivity.hpp"
#include "gps/casestudy.hpp"
#include "gps/published.hpp"
#include "kits/fleet.hpp"
#include "kits/registry.hpp"
#include "moe/montecarlo.hpp"
#include "perfbench.hpp"
#include "rf/prototype.hpp"
#include "rf/tolerance.hpp"
#include "rf/transform.hpp"

namespace perfbench {

namespace {

using namespace ipass;

enum Call {
  kSweepKits,
  kCompile,
  kEvaluate,
  kPareto,
  kPartition,
  kGrid,
  kCalibrate,
  kSensitivity,
  kTolerance,
  kMonteCarlo,
  kCalls
};
constexpr const char* kCallNames[kCalls] = {
    "kits.sweep_kits", "core.compile_study", "core.evaluate",    "core.pareto_sweep",
    "core.partition_sweep", "core.scenario_grid", "core.calibrate", "core.sensitivity",
    "rf.tolerance",    "moe.montecarlo"};
// Calls whose inputs depend on the seed: checked against the in-run
// reference only, not against a pinned digest.
bool seeded(int call) { return call == kEvaluate || call == kPareto; }

constexpr std::size_t kSweepPoints = 16384;
constexpr std::size_t kPointsPerCall = 64;  // one library evaluate request
constexpr std::size_t kParetoPoints = 1024;
constexpr std::size_t kToleranceSamples = 200000;
constexpr std::size_t kMonteCarloSamples = 200000;

// Everything a batch reads: the registry, BOM and case study (building
// those is the workload's set-up) plus the seeded calibration sweep.
struct StudyInputs {
  StudyInputs()
      : registry(kits::builtin_kit_registry()),
        selection(registry.names()),
        study(gps::make_gps_case_study()),
        filter(rf::realize_bandpass(rf::chebyshev(2, 0.5), 175e6, 22e6, 50.0)),
        flow(core::build_flow(core::assess_area(study.bom, study.buildups[3], study.kits),
                              study.buildups[3])),
        fig5(gps::published_fig5_cost_ratio()) {
    fleet.reference = kits::kPcbFr4Kit;
    fleet.corners = core::ScenarioGrid::corner_sweep(8, 0.5, 2.0, 0.9, 1.1);
    fleet.volumes = core::ScenarioGrid::volume_sweep(16, 1e3, 1e6);
    blocks = {{"rf-fe", 18.0, 30000.0},
              {"correlator", 32.0, 45000.0},
              {"sram", 40.0, 20000.0},
              {"pmic", 9.0, 12000.0},
              {"serdes", 14.0, 25000.0}};
    fleet.partition_blocks = blocks;
    grid.buildups = study.buildups;  // 4 x 500 x 500 = 1M cells
    grid.corners = core::ScenarioGrid::corner_sweep(500, 0.25, 4.0, 0.7, 1.3);
    grid.volumes = core::ScenarioGrid::volume_sweep(500, 1e3, 1e7);
    calibration = {{"XX", 20.0, 5.0, 80.0, 2.0},
                   {"ZZ", 30.0, 5.0, 120.0, 2.0},
                   {"YY", 18.0, 5.0, 80.0, 2.0},
                   {"AA", 26.0, 5.0, 120.0, 2.0}};
  }

  // The benchmark's own seeded inputs (not part of the timed set-up).
  void add_sweep(std::uint64_t seed) {
    Pcg32 rng(seed, 0x7374756479);  // "study"
    for (std::size_t i = 0; i < kSweepPoints; ++i) {
      gps::GpsSweepPoint p;
      p.confidential = study.confidential;
      p.confidential.rf_chip_packaged = rng.uniform(15.0, 40.0);
      p.confidential.dsp_packaged = rng.uniform(20.0, 60.0);
      p.confidential.rf_chip_bare = rng.uniform(10.0, 35.0);
      p.confidential.dsp_bare = rng.uniform(15.0, 50.0);
      p.confidential.nre_mcm_ip = rng.uniform(20000.0, 70000.0);
      p.weights.cost = rng.uniform(0.5, 2.0);
      if (i % kPointsPerCall == 0) sweep.emplace_back();
      sweep.back().push_back(gps::gps_assessment_inputs(p));
      if (i < kParetoPoints) pareto_points.push_back(sweep.back().back());
    }
  }

  kits::KitRegistry registry;
  std::vector<std::string> selection;
  gps::GpsCaseStudy study;
  rf::Circuit filter;
  moe::FlowModel flow;
  std::array<double, 4> fig5;
  kits::KitSweepOptions fleet;
  std::vector<core::PartitionBlock> blocks;
  core::ScenarioGrid grid;
  std::vector<std::vector<core::AssessmentInputs>> sweep;  // one entry per call
  std::vector<core::AssessmentInputs> pareto_points;
  std::vector<core::Parameter> calibration;
};

// What one batch returns, kept until the batch's clock has stopped.
struct BatchResults {
  kits::KitFleetSummary fleet;
  std::shared_ptr<const core::CompiledStudy> compiled;
  std::vector<core::BatchAssessmentResult> evaluations;
  core::ParetoSweepSummary pareto;
  core::PartitionSweepResult partition;
  core::ScenarioGridSummary grid;
  core::CalibrationResult calibration;
  core::SensitivityReport sensitivity;
  rf::ToleranceResult tolerance;
  moe::McReport monte_carlo;
};

using CallSeconds = std::array<double, kCalls>;

// Run one batch.  Evaluate-call latencies are always recorded (they are an
// end-to-end metric); `timers` (traced runs only) receives every call's
// wall time.
BatchResults run_batch(const StudyInputs& in, unsigned threads, CallSeconds* timers,
                       std::vector<double>& evaluate_us) {
  const auto timed = [&](int call, auto&& fn) {
    if (timers == nullptr) return fn();
    const Clock::time_point t0 = Clock::now();
    auto result = fn();
    (*timers)[call] += seconds_between(t0, Clock::now());
    return result;
  };
  BatchResults out;
  kits::KitSweepOptions fleet = in.fleet;
  fleet.threads = threads;
  out.fleet = timed(kSweepKits, [&] {
    return kits::sweep_kits(in.registry, in.selection, in.study.bom, fleet);
  });
  out.compiled = timed(kCompile, [&] {
    return core::compile_study(in.study.bom, in.study.buildups, in.study.kits);
  });
  const core::AssessmentPipeline pipeline(out.compiled);
  // The sweep's evaluate requests come from `threads` concurrent callers,
  // one engine thread each (as served requests run): a request's latency
  // then depends on its own thread only, not on the slowest pool worker.
  const Clock::time_point eval_start = Clock::now();
  out.evaluations.resize(in.sweep.size());
  std::vector<std::vector<double>> caller_us(threads);
  const auto caller = [&](unsigned k) {
    for (std::size_t i = k; i < in.sweep.size(); i += threads) {
      const Clock::time_point t0 = Clock::now();
      try {
        out.evaluations[i] = pipeline.evaluate(in.sweep[i], 1);
      } catch (const std::exception& e) {
        // The empty slot fails the comparison with the reference.
        std::fprintf(stderr, "study-batch: evaluate request %zu threw: %s\n", i, e.what());
      }
      caller_us[k].push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
  };
  std::vector<std::thread> callers;
  for (unsigned k = 1; k < threads; ++k) callers.emplace_back(caller, k);
  caller(0);
  for (std::thread& c : callers) c.join();
  for (const std::vector<double>& us : caller_us) {
    evaluate_us.insert(evaluate_us.end(), us.begin(), us.end());
  }
  if (timers != nullptr) (*timers)[kEvaluate] += seconds_between(eval_start, Clock::now());
  out.pareto = timed(kPareto, [&] { return core::pareto_sweep(pipeline, in.pareto_points, threads); });
  out.partition = timed(kPartition, [&] {
    return core::partition_sweep(pipeline, 1, in.blocks, {}, threads);
  });
  out.grid = timed(kGrid, [&] {
    return core::evaluate_scenario_grid(in.study.bom, in.study.kits, in.grid, threads);
  });
  out.calibration = timed(kCalibrate, [&] {
    const core::BatchObjective objective = [&](const std::vector<std::vector<double>>& pts,
                                               std::vector<double>& values) {
      std::vector<core::AssessmentInputs> inputs(pts.size());
      for (std::size_t k = 0; k < pts.size(); ++k) {
        gps::GpsSweepPoint point;
        point.confidential = in.study.confidential;
        point.confidential.rf_chip_packaged = pts[k][0];
        point.confidential.dsp_packaged = pts[k][1];
        point.confidential.rf_chip_bare = pts[k][2];
        point.confidential.dsp_bare = pts[k][3];
        inputs[k] = gps::gps_assessment_inputs(point);
      }
      const core::BatchAssessmentResult batch = pipeline.evaluate(inputs, threads);
      for (std::size_t k = 0; k < pts.size(); ++k) {
        double err = 0.0;
        for (std::size_t i = 1; i < 4; ++i) {
          const double d = batch.at(k, i).cost_rel - in.fig5[i];
          err += d * d;
        }
        values[k] = err;
      }
    };
    core::CalibrationOptions options;
    options.max_rounds = 20;
    return core::calibrate_batched(in.calibration, objective, options);
  });
  out.sensitivity = timed(kSensitivity, [&] {
    core::SensitivityOptions options;
    options.difference = core::FiniteDifference::Central;
    options.threads = threads;
    return core::cost_sensitivity(in.study.bom, in.study.buildups[3], in.study.kits, options);
  });
  out.tolerance = timed(kTolerance, [&] {
    rf::ToleranceOptions options;
    options.samples = kToleranceSamples;
    options.seed = 99;
    options.threads = threads;
    return rf::bandpass_parametric_yield(in.filter, rf::ToleranceSpec::integrated_untrimmed(),
                                         175e6, 1.5, 0.02, options);
  });
  out.monte_carlo = timed(kMonteCarlo, [&] {
    moe::McOptions options;
    options.samples = kMonteCarloSamples;
    options.threads = threads;
    return moe::evaluate_monte_carlo(in.flow, options);
  });
  return out;
}

// ----------------------------------------------------- outputs as doubles

void put(std::vector<double>& v, const core::BuildUpSummary& s) {
  v.insert(v.end(), {s.performance, s.module_area_mm2, s.area_rel, s.shipped_fraction,
                     s.direct_cost, s.chip_cost_direct, s.yield_loss_per_shipped,
                     s.nre_per_shipped, s.final_cost_per_shipped, s.cost_rel, s.fom});
}

void put(std::vector<double>& v, const core::BatchAssessmentResult& b) {
  for (const core::BuildUpSummary& s : b.summaries) put(v, s);
  for (const std::size_t w : b.winners) v.push_back(static_cast<double>(w));
}

void put(std::vector<double>& v, const core::ScenarioCell& c) {
  v.insert(v.end(), {static_cast<double>(c.cell), static_cast<double>(c.buildup),
                     static_cast<double>(c.corner), static_cast<double>(c.volume),
                     c.final_cost_per_shipped, c.shipped_fraction});
}

void put(std::vector<double>& v, const core::ScenarioGridSummary& g) {
  v.push_back(static_cast<double>(g.cells));
  put(v, g.best);
  put(v, g.worst);
  v.insert(v.end(), {g.cost_mean, g.cost_stddev});
  for (const std::size_t w : g.wins_per_buildup) v.push_back(static_cast<double>(w));
}

void put(std::vector<double>& v, const core::ParetoSweepSummary& p) {
  put(v, p.results);
  for (const core::ParetoEntry& e : p.entries) v.push_back(e.dominated ? 1.0 : 0.0);
  for (const std::size_t c : p.frontier_counts) v.push_back(static_cast<double>(c));
}

void put(std::vector<double>& v, const core::PartitionSweepResult& p) {
  for (const core::PartitionCandidate& c : p.candidates) {
    for (const int a : c.assignment) v.push_back(a);
    v.push_back(static_cast<double>(c.die_count));
    put(v, c.summary);
  }
  v.insert(v.end(), {static_cast<double>(p.best), p.exhaustive ? 1.0 : 0.0});
}

using Outputs = std::array<std::vector<double>, kCalls>;

Outputs outputs(const BatchResults& r) {
  Outputs o;
  std::vector<double>& fleet = o[kSweepKits];
  fleet.push_back(static_cast<double>(r.fleet.winner));
  for (const kits::KitAssessment& k : r.fleet.kits) {
    fleet.insert(fleet.end(), {static_cast<double>(k.own_offset),
                               static_cast<double>(k.best_variant), k.best_fom,
                               static_cast<double>(k.report.winner)});
    for (const core::BuildUpAssessment& a : k.report.assessments) put(fleet, core::summarize(a));
    put(fleet, k.grid);
    put(fleet, k.pareto);
    put(fleet, k.partition);
  }
  const core::CompiledStudy& c = *r.compiled;
  for (std::size_t i = 0; i < c.buildups.size(); ++i) {
    o[kCompile].insert(o[kCompile].end(), {c.performance[i].score, c.areas[i].module_area_mm2(),
                                           c.area_rel[i]});
  }
  o[kCompile].push_back(c.ref_area);
  for (const core::BatchAssessmentResult& b : r.evaluations) put(o[kEvaluate], b);
  put(o[kPareto], r.pareto);
  put(o[kPartition], r.partition);
  put(o[kGrid], r.grid);
  for (const core::Parameter& p : r.calibration.parameters) o[kCalibrate].push_back(p.value);
  o[kCalibrate].insert(o[kCalibrate].end(),
                       {r.calibration.objective, static_cast<double>(r.calibration.evaluations),
                        static_cast<double>(r.calibration.proposed),
                        static_cast<double>(r.calibration.rounds)});
  for (const core::SensitivityRow& row : r.sensitivity.rows) {
    o[kSensitivity].insert(o[kSensitivity].end(), {row.base_cost, row.perturbed_cost,
                                                   row.perturbed_cost_down, row.elasticity});
  }
  const rf::ToleranceResult& t = r.tolerance;
  o[kTolerance] = {static_cast<double>(t.samples), static_cast<double>(t.passing),
                   t.parametric_yield, t.ci95_half_width, t.metric_mean, t.metric_stddev,
                   t.metric_min, t.metric_max};
  const moe::McReport& mc = r.monte_carlo;
  o[kMonteCarlo] = {mc.report.final_cost_per_shipped, mc.report.shipped_fraction,
                    mc.report.good_fraction, mc.report.escaped_defect_rate,
                    mc.report.direct_cost, mc.report.yield_loss_per_shipped,
                    mc.report.nre_per_shipped, mc.final_cost_ci95,
                    static_cast<double>(mc.scrapped_units), static_cast<double>(mc.shipped_units),
                    static_cast<double>(mc.escaped_defectives)};
  return o;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Number of calls whose outputs differ from the reference.
std::uint64_t mismatches(const Outputs& got, const Outputs& reference) {
  std::uint64_t bad = 0;
  for (int c = 0; c < kCalls; ++c) {
    if (!bit_identical(got[c], reference[c])) {
      std::fprintf(stderr, "study-batch: %s differs from the reference\n", kCallNames[c]);
      ++bad;
    }
  }
  return bad;
}

// Library calls in one batch (every 64-point evaluate counts as one).
std::uint64_t calls_per_batch(const StudyInputs& in) {
  return kCalls - 1 + in.sweep.size();
}

// digests.txt: "call-name hex" lines; "#" starts a comment line.
std::map<std::string, std::string> load_digests(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, hex;
    if (line.rfind('#', 0) != 0 && fields >> name >> hex) out[name] = hex;
  }
  return out;
}

}  // namespace

RunResult run_study(const StudyConfig& cfg) {
  RunResult r;
  const unsigned threads = std::max(1U, std::min(4U, std::thread::hardware_concurrency()));

  // Reference batch (one thread, untimed) and the pinned digests.
  auto in = std::make_unique<StudyInputs>();
  in->add_sweep(cfg.seed);
  std::vector<double> scratch;
  double consumed_ratio = 0.0;  // calibrate: consumed / proposed points
  const Outputs reference = [&] {
    const BatchResults ref = run_batch(*in, 1, nullptr, scratch);
    consumed_ratio = static_cast<double>(ref.calibration.evaluations) / ref.calibration.proposed;
    return outputs(ref);
  }();
  const std::map<std::string, std::string> pinned = load_digests(cfg.digest_file);
  std::uint64_t attempted = calls_per_batch(*in);
  std::uint64_t failed = 0;
  for (int c = 0; c < kCalls; ++c) {
    Digest d;
    d.add(reference[c]);
    if (cfg.print_digests) {
      if (!seeded(c)) std::printf("%s %s\n", kCallNames[c], d.hex().c_str());
      continue;
    }
    if (seeded(c)) continue;
    const auto it = pinned.find(kCallNames[c]);
    if (it == pinned.end() || it->second != d.hex()) {
      std::fprintf(stderr, "study-batch: %s digest %s, pinned %s\n", kCallNames[c],
                   d.hex().c_str(), it == pinned.end() ? "(none)" : it->second.c_str());
      ++failed;
    }
  }
  if (cfg.print_digests) return r;

  // Set-up: build the registry, BOM and case study several times; report
  // the median.  Timed after the reference batch, so every repetition
  // starts from the same warm heap.
  constexpr int kSetups = 20;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    in.reset();
    const Clock::time_point t0 = Clock::now();
    in = std::make_unique<StudyInputs>();
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  in->add_sweep(cfg.seed);

  // Timed batches until the window is spent (at least three).  A non-null
  // `per_call` makes the run traced: every call gets its own timer.
  const auto run_window = [&](unsigned t, double seconds, std::vector<CallSeconds>* per_call,
                              std::vector<double>& eval_us) {
    std::vector<double> batch_s;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    while (batch_s.size() < 3 || Clock::now() < end) {
      CallSeconds calls{};
      const Clock::time_point t0 = Clock::now();
      const BatchResults res = run_batch(*in, t, per_call != nullptr ? &calls : nullptr, eval_us);
      batch_s.push_back(seconds_between(t0, Clock::now()));
      if (per_call != nullptr) per_call->push_back(calls);
      attempted += calls_per_batch(*in);
      failed += mismatches(outputs(res), reference);
    }
    return batch_s;
  };

  // Unmeasured (but checked) batches first: on a shared host the first
  // batches of a process sometimes run several times slower.
  constexpr double kWarmupSeconds = 0.5;
  std::vector<double> eval_us;
  run_window(threads, kWarmupSeconds, nullptr, eval_us);
  eval_us.clear();
  if (!cfg.trace) {
    // One segment of an untraced run; run.py pools the raw samples.
    const std::vector<double> batch_s = run_window(threads, cfg.seconds, nullptr, eval_us);
    r.samples["latency_us"] = eval_us;
    r.samples["study_s"] = batch_s;
    r.samples["setup_s"] = setups;
    // Library calls per second of each batch; run.py takes the median.
    for (const double s : batch_s) {
      r.samples["rate_rps"].push_back(static_cast<double>(calls_per_batch(*in)) / s);
    }
    r.info["rss_peak_mb"] = vm_hwm_mib(0);
  } else {
    const std::vector<double> plain = run_window(threads, cfg.seconds / 2, nullptr, eval_us);
    std::vector<CallSeconds> per_batch;
    const std::vector<double> traced = run_window(threads, cfg.seconds / 2, &per_batch, eval_us);
    const std::vector<double> serial = run_window(1, cfg.seconds / 4, nullptr, eval_us);
    const auto call_median = [&](int call) {
      std::vector<double> v;
      for (const CallSeconds& c : per_batch) v.push_back(c[call]);
      return median(v);
    };
    r.metrics["kits.sweep_kits_ms"] = call_median(kSweepKits) * 1e3;
    r.metrics["core.compile_study_ms"] = call_median(kCompile) * 1e3;
    r.metrics["core.pareto_sweep_ms"] = call_median(kPareto) * 1e3;
    r.metrics["core.partition_sweep_ms"] = call_median(kPartition) * 1e3;
    r.metrics["core.sensitivity_ms"] = call_median(kSensitivity) * 1e3;
    r.metrics["core.calibrate_ms"] = call_median(kCalibrate) * 1e3;
    r.metrics["core.evaluate_points_per_s"] = kSweepPoints / call_median(kEvaluate);
    r.metrics["core.scenario_grid_cells_per_s"] =
        static_cast<double>(in->grid.cell_count()) / call_median(kGrid);
    r.metrics["rf.tolerance_samples_per_s"] = kToleranceSamples / call_median(kTolerance);
    r.metrics["moe.mc_samples_per_s"] = kMonteCarloSamples / call_median(kMonteCarlo);
    r.metrics["core.calibrate.consumed_ratio"] = consumed_ratio;
    r.metrics["common.parallel_speedup"] = median(serial) / median(plain);
    r.metrics["trace.overhead_pct"] = (median(traced) / median(plain) - 1.0) * 100.0;
    r.info["batches"] = static_cast<double>(plain.size() + traced.size() + serial.size());
  }
  r.info["threads"] = threads;
  r.attempted = attempted;
  r.failed = failed;
  return r;
}

}  // namespace perfbench
