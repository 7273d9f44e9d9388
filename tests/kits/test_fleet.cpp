// Fleet-sweep tests: the registry's paper kits must reproduce the golden
// GPS report bit for bit, and a cross-kit fleet sweep must be
// deterministic for any thread count.
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "core/area_assess.hpp"
#include "core/export.hpp"
#include "core/perf_assess.hpp"
#include "gps/bom.hpp"
#include "gps/casestudy.hpp"
#include "kits/fleet.hpp"
#include "kits/registry.hpp"

#ifndef IPASS_GOLDEN_DIR
#error "IPASS_GOLDEN_DIR must point at tests/gps/golden"
#endif

namespace ipass::kits {
namespace {

std::string read_golden(const char* name) {
  const std::string path = std::string(IPASS_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The registry's three paper kits, flattened to build-ups and assessed
// against the GPS BOM under the default TechKits, must reproduce the
// golden default report — line for line, which with %.17g means every
// double is bit-identical to the seed numbers.
TEST(KitFleet, PaperKitsReproduceGoldenReport) {
  const KitRegistry registry = builtin_kit_registry();
  const std::vector<core::BuildUp> buildups =
      make_buildups(registry, paper_kit_selection());
  ASSERT_EQ(buildups.size(), 4u);

  const core::DecisionReport report =
      core::assess(gps::gps_front_end_bom(), buildups, core::TechKits{});
  EXPECT_EQ(core::decision_report_json(report), read_golden("default.json"));
}

// apply_passives() of a paper kit is the default TechKits (the paper kits
// carry the SUMMIT-era processes), so the kit-driven study equals the
// hand-built case study through the pipeline path too.
TEST(KitFleet, PaperKitPassivesMatchDefaultTechKits) {
  const KitRegistry registry = builtin_kit_registry();
  const core::TechKits from_kit = apply_passives(registry.at(kMcmDSiIpKit));
  const std::vector<core::BuildUp> buildups =
      make_buildups(registry, paper_kit_selection());
  const core::DecisionReport report =
      core::assess(gps::gps_front_end_bom(), buildups, from_kit);
  EXPECT_EQ(core::decision_report_json(report), read_golden("default.json"));
}

// And the paper-kit build-ups are field-for-field the Table-2 build-ups.
TEST(KitFleet, PaperKitBuildupsEqualTable2) {
  const KitRegistry registry = builtin_kit_registry();
  const std::vector<core::BuildUp> from_kits =
      make_buildups(registry, paper_kit_selection());
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  ASSERT_EQ(from_kits.size(), study.buildups.size());
  for (std::size_t b = 0; b < from_kits.size(); ++b) {
    EXPECT_EQ(from_kits[b].index, study.buildups[b].index);
    EXPECT_EQ(from_kits[b].name, study.buildups[b].name);
    EXPECT_EQ(from_kits[b].substrate.name, study.buildups[b].substrate.name);
    EXPECT_TRUE(bits_equal(from_kits[b].production.nre_total,
                           study.buildups[b].production.nre_total));
    EXPECT_TRUE(bits_equal(from_kits[b].production.rf_chip_cost,
                           study.buildups[b].production.rf_chip_cost));
  }
}

void expect_summary_bits(const core::BuildUpSummary& a, const core::BuildUpSummary& b,
                         const char* what) {
  static_assert(sizeof(core::BuildUpSummary) % sizeof(double) == 0,
                "BuildUpSummary gained a non-double member; update the field walk");
  const double* pa = &a.performance;
  const double* pb = &b.performance;
  constexpr std::size_t kFields = sizeof(core::BuildUpSummary) / sizeof(double);
  for (std::size_t f = 0; f < kFields; ++f) {
    EXPECT_TRUE(bits_equal(pa[f], pb[f]))
        << what << " field " << f << ": " << pa[f] << " vs " << pb[f];
  }
}

void expect_fleet_bits(const KitFleetSummary& a, const KitFleetSummary& b) {
  ASSERT_EQ(a.kits.size(), b.kits.size());
  EXPECT_EQ(a.winner, b.winner);
  for (std::size_t k = 0; k < a.kits.size(); ++k) {
    const KitAssessment& ka = a.kits[k];
    const KitAssessment& kb = b.kits[k];
    SCOPED_TRACE(ka.kit);
    EXPECT_EQ(ka.kit, kb.kit);
    EXPECT_EQ(ka.best_variant, kb.best_variant);
    EXPECT_TRUE(bits_equal(ka.best_fom, kb.best_fom));

    // Full-fidelity nominal reports: compare serialized (field for field).
    EXPECT_EQ(core::decision_report_json(ka.report),
              core::decision_report_json(kb.report));

    // Scenario-grid summaries, to the bit.
    EXPECT_EQ(core::scenario_grid_summary_json(ka.grid),
              core::scenario_grid_summary_json(kb.grid));

    // Pareto sweeps: every summary and frontier flag.
    ASSERT_EQ(ka.pareto.results.summaries.size(), kb.pareto.results.summaries.size());
    for (std::size_t i = 0; i < ka.pareto.results.summaries.size(); ++i) {
      expect_summary_bits(ka.pareto.results.summaries[i],
                          kb.pareto.results.summaries[i], ka.kit.c_str());
    }
    ASSERT_EQ(ka.pareto.entries.size(), kb.pareto.entries.size());
    for (std::size_t i = 0; i < ka.pareto.entries.size(); ++i) {
      EXPECT_EQ(ka.pareto.entries[i].dominated, kb.pareto.entries[i].dominated);
      EXPECT_EQ(ka.pareto.entries[i].dominated_by, kb.pareto.entries[i].dominated_by);
    }
    EXPECT_EQ(ka.pareto.frontier_counts, kb.pareto.frontier_counts);
    EXPECT_EQ(ka.grid.wins_per_buildup, kb.grid.wins_per_buildup);
  }
}

void expect_performance_bits(const core::PerformanceResult& a,
                             const core::PerformanceResult& b, const std::string& where) {
  EXPECT_TRUE(bits_equal(a.score, b.score)) << where;
  ASSERT_EQ(a.filters.size(), b.filters.size()) << where;
  for (std::size_t i = 0; i < a.filters.size(); ++i) {
    const core::FilterPerformance& x = a.filters[i];
    const core::FilterPerformance& y = b.filters[i];
    EXPECT_EQ(x.name, y.name) << where;
    EXPECT_EQ(x.style, y.style) << where << " " << x.name;
    EXPECT_EQ(x.meets_spec, y.meets_spec) << where << " " << x.name;
    for (const auto field : {&core::FilterPerformance::il_spec_db,
                             &core::FilterPerformance::il_calc_db,
                             &core::FilterPerformance::rejection_spec_db,
                             &core::FilterPerformance::rejection_calc_db,
                             &core::FilterPerformance::loss_score,
                             &core::FilterPerformance::rejection_score,
                             &core::FilterPerformance::score}) {
      EXPECT_TRUE(bits_equal(x.*field, y.*field)) << where << " " << x.name;
    }
  }
}

void expect_area_bits(const core::AreaResult& a, const core::AreaResult& b,
                      const std::string& where) {
  EXPECT_TRUE(bits_equal(a.component_area_mm2, b.component_area_mm2)) << where;
  EXPECT_TRUE(bits_equal(a.smd_area_mm2, b.smd_area_mm2)) << where;
  EXPECT_TRUE(bits_equal(a.substrate.side_mm, b.substrate.side_mm)) << where;
  EXPECT_TRUE(bits_equal(a.substrate.area_mm2, b.substrate.area_mm2)) << where;
  EXPECT_TRUE(bits_equal(a.module.side_mm, b.module.side_mm)) << where;
  EXPECT_TRUE(bits_equal(a.module.area_mm2, b.module.area_mm2)) << where;
  ASSERT_EQ(a.bom.components.size(), b.bom.components.size()) << where;
  for (std::size_t i = 0; i < a.bom.components.size(); ++i) {
    const core::ComponentInstance& x = a.bom.components[i];
    const core::ComponentInstance& y = b.bom.components[i];
    EXPECT_EQ(x.name, y.name) << where;
    EXPECT_EQ(x.mount, y.mount) << where << " " << x.name;
    EXPECT_EQ(x.area_category, y.area_category) << where << " " << x.name;
    EXPECT_EQ(x.count, y.count) << where << " " << x.name;
    EXPECT_TRUE(bits_equal(x.area_mm2, y.area_mm2)) << where << " " << x.name;
    EXPECT_TRUE(bits_equal(x.unit_price, y.unit_price)) << where << " " << x.name;
  }
  ASSERT_EQ(a.bom.filters.size(), b.bom.filters.size()) << where;
  for (std::size_t i = 0; i < a.bom.filters.size(); ++i) {
    const core::RealizedFilter& x = a.bom.filters[i];
    const core::RealizedFilter& y = b.bom.filters[i];
    EXPECT_EQ(x.spec.name, y.spec.name) << where;
    EXPECT_EQ(x.style, y.style) << where << " " << x.spec.name;
    EXPECT_EQ(x.smd_inductors_per_filter, y.smd_inductors_per_filter) << where;
    EXPECT_TRUE(bits_equal(x.area_mm2, y.area_mm2)) << where << " " << x.spec.name;
  }
}

// sweep_kits compiles the shared reference rows once and hands them to
// every kit's study.  That is sound because an all-SMD build-up reads no
// passive process: its performance and area rows are bit-identical under
// every built-in kit's TechKits.
TEST(KitFleet, ReferenceRowsAreBitIdenticalUnderEveryKitsPassives) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const ProcessKit& reference = registry.at(kPcbFr4Kit);
  const core::TechKits own = apply_passives(reference);
  for (const core::BuildUp& b : make_buildups(reference)) {
    const core::PerformanceResult perf = core::assess_performance(bom, b, own);
    const core::AreaResult area = core::assess_area(bom, b, own);
    for (const std::string& name : registry.names()) {
      const core::TechKits kits = apply_passives(registry.at(name));
      const std::string where = b.name + " under " + name;
      expect_performance_bits(perf, core::assess_performance(bom, b, kits), where);
      expect_area_bits(area, core::assess_area(bom, b, kits), where);
    }
  }
}

// And the sweep uses that: every build-up runs its MNA sweeps once per
// sweep, the shared reference rows included, not once per kit study.
TEST(KitFleet, ReferenceRowsAreCompiledOncePerSweep) {
  const KitRegistry registry = builtin_kit_registry();
  const std::vector<std::string> selection = registry.names();
  std::size_t variants = 0;
  for (const std::string& name : selection) variants += registry.at(name).variants.size();
  ASSERT_GT(selection.size(), 2u);

  KitSweepOptions options;
  options.reference = kPcbFr4Kit;
  metrics::Histogram& sweeps =
      metrics::global_metrics().histogram("core_profile_mna_sweeps_ns");
  metrics::set_profiling_enabled(true);
  const std::uint64_t before = sweeps.count();
  const KitFleetSummary fleet = sweep_kits(registry, selection, gps::gps_front_end_bom(),
                                           options);
  const std::uint64_t ran = sweeps.count() - before;
  metrics::set_profiling_enabled(false);
  ASSERT_EQ(fleet.kits.size(), selection.size());
  EXPECT_EQ(ran, variants);
}

KitSweepOptions fleet_options(unsigned threads) {
  KitSweepOptions options;
  options.reference = kPcbFr4Kit;
  options.corners = core::ScenarioGrid::corner_sweep(3, 0.5, 2.0, 0.9, 1.1);
  options.volumes = core::ScenarioGrid::volume_sweep(3, 1e3, 1e6);
  options.threads = threads;
  return options;
}

// The acceptance bar: a >= 6-kit fleet swept through evaluate_scenario_grid
// and pareto_sweep is bit-identical for 1 and 8 threads.
TEST(KitFleet, SweepIsThreadInvariant) {
  const KitRegistry registry = builtin_kit_registry();
  const std::vector<std::string> selection = registry.names();  // all 7 kits
  ASSERT_GE(selection.size(), 6u);
  const core::FunctionalBom bom = gps::gps_front_end_bom();

  const KitFleetSummary serial = sweep_kits(registry, selection, bom, fleet_options(1));
  const KitFleetSummary parallel = sweep_kits(registry, selection, bom, fleet_options(8));
  expect_fleet_bits(serial, parallel);
}

TEST(KitFleet, SweepShapeAndReference) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const KitFleetSummary fleet = sweep_kits(
      registry, {kPcbFr4Kit, kMcmDSiIpKit, kLtccKit}, bom, fleet_options(1));

  ASSERT_EQ(fleet.kits.size(), 3u);
  // The reference kit is assessed as its own (single build-up) study...
  EXPECT_EQ(fleet.kits[0].kit, kPcbFr4Kit);
  EXPECT_EQ(fleet.kits[0].own_offset, 0u);
  ASSERT_EQ(fleet.kits[0].report.assessments.size(), 1u);
  // ...and every other kit is anchored on it: reference build-ups first.
  EXPECT_EQ(fleet.kits[1].own_offset, 1u);
  ASSERT_EQ(fleet.kits[1].report.assessments.size(), 3u);  // PCB + 2 IP variants
  EXPECT_EQ(fleet.kits[1].report.assessments[0].buildup.name, "PCB/SMD");
  EXPECT_EQ(fleet.kits[1].report.assessments[0].area_rel, 1.0);
  ASSERT_EQ(fleet.kits[2].report.assessments.size(), 2u);  // PCB + LTCC

  // 9 scenario points per kit (3 corners x 3 volumes), entries per point
  // per build-up, grid cells = buildups x corners x volumes.
  const KitAssessment& ltcc = fleet.kits[2];
  EXPECT_EQ(ltcc.pareto.results.points, 9u);
  EXPECT_EQ(ltcc.pareto.results.buildups, 2u);
  EXPECT_EQ(ltcc.pareto.entries.size(), 18u);
  EXPECT_EQ(ltcc.grid.cells, 2u * 3u * 3u);

  // The fleet table renders one line per kit plus the header; the
  // reference kit's wins/frontier are '-' (its study has no competitors).
  const std::string table = fleet.to_table();
  EXPECT_NE(table.find(kLtccKit), std::string::npos);
  EXPECT_NE(table.find("<- winner"), std::string::npos);
  const std::string ref_row = table.substr(table.find(kPcbFr4Kit));
  EXPECT_NE(ref_row.substr(0, ref_row.find('\n')).find(" -"), std::string::npos);
}

// The shared reference must be an all-SMD carrier — an integrated-passive
// reference would anchor every study on a different realization.
TEST(KitFleet, NonSmdReferenceRejected) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  KitSweepOptions options = fleet_options(1);
  options.reference = kLtccKit;  // PassivePolicy::Optimized
  try {
    sweep_kits(registry, {kLtccKit, kOrganicEpKit}, bom, options);
    FAIL() << "expected a PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(kLtccKit), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("all-SMD"), std::string::npos);
  }
}

// The nominal corner {1, 1} maps to the unperturbed parameter vector: a
// fleet_scenario_points() point at the default volume must reproduce the
// pipeline's own evaluation of its compiled build-ups exactly.
TEST(KitFleet, NominalScenarioPointMatchesPipeline) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const std::vector<core::BuildUp> buildups =
      make_buildups(registry, paper_kit_selection());
  const core::AssessmentPipeline pipeline(bom, buildups, core::TechKits{});

  const double volume = buildups[0].production.volume;
  const std::vector<core::AssessmentInputs> points = fleet_scenario_points(
      pipeline, {core::ProcessCorner{1.0, 1.0}}, {volume}, core::FomWeights{});
  ASSERT_EQ(points.size(), 1u);

  const core::BatchAssessmentResult with_overrides = pipeline.evaluate(points, 1);
  const core::BatchAssessmentResult plain =
      pipeline.evaluate({core::AssessmentInputs{}}, 1);
  for (std::size_t b = 0; b < buildups.size(); ++b) {
    expect_summary_bits(with_overrides.at(0, b), plain.at(0, b), "nominal corner");
  }
}

// The kit's own corner baseline must move only the kit's own build-ups:
// the shared reference rows are the common anchor of the whole fleet and
// stay at the grid's corners bit for bit.
TEST(KitFleet, KitCornerBaselineLeavesReferenceRowsAlone) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  // mcm-d-si-ip-gen2 carries a non-identity corner baseline {0.8, 1.0}.
  const ProcessKit& gen2 = registry.at(kMcmDSiIpGen2Kit);
  ASSERT_NE(gen2.corner.fault_scale, 1.0);

  // The same sweep over a registry whose gen2 copy has an identity corner.
  KitRegistry identity;
  identity.add(registry.at(kPcbFr4Kit));
  ProcessKit flat_gen2 = gen2;
  flat_gen2.corner = core::ProcessCorner{};
  identity.add(flat_gen2);

  const KitFleetSummary a =
      sweep_kits(registry, {kPcbFr4Kit, kMcmDSiIpGen2Kit}, bom, fleet_options(1));
  const KitFleetSummary b =
      sweep_kits(identity, {kPcbFr4Kit, kMcmDSiIpGen2Kit}, bom, fleet_options(1));

  const KitAssessment& ga = a.kits[1];
  const KitAssessment& gb = b.kits[1];
  ASSERT_EQ(ga.own_offset, 1u);
  ASSERT_EQ(ga.pareto.results.buildups, 3u);
  bool own_rows_moved = false;
  for (std::size_t p = 0; p < ga.pareto.results.points; ++p) {
    // Reference row (build-up 0): identical whether or not the kit's
    // baseline composes in.
    expect_summary_bits(ga.pareto.results.at(p, 0), gb.pareto.results.at(p, 0),
                        "reference row");
    // Own rows: the 0.8 fault baseline must actually change the numbers.
    for (std::size_t o = 1; o < 3; ++o) {
      if (!bits_equal(ga.pareto.results.at(p, o).shipped_fraction,
                      gb.pareto.results.at(p, o).shipped_fraction)) {
        own_rows_moved = true;
      }
    }
  }
  EXPECT_TRUE(own_rows_moved);
}

// Corner scaling on the pipeline path follows the scenario-grid semantics:
// fault_scale = 0 makes every line step perfect, so the shipped fraction
// collapses to the final-test escape bookkeeping of a zero-defect line.
TEST(KitFleet, CornerScalingMovesYieldAndCost) {
  const KitRegistry registry = builtin_kit_registry();
  const core::FunctionalBom bom = gps::gps_front_end_bom();
  const std::vector<core::BuildUp> buildups =
      make_buildups(registry, paper_kit_selection());
  const core::AssessmentPipeline pipeline(bom, buildups, core::TechKits{});
  const double volume = buildups[0].production.volume;

  const std::vector<core::AssessmentInputs> points = fleet_scenario_points(
      pipeline,
      {core::ProcessCorner{1.0, 1.0}, core::ProcessCorner{0.0, 1.0},
       core::ProcessCorner{1.0, 2.0}},
      {volume}, core::FomWeights{});
  const core::BatchAssessmentResult r = pipeline.evaluate(points, 1);

  for (std::size_t b = 0; b < buildups.size(); ++b) {
    // A perfect line ships everything.
    EXPECT_GT(r.at(1, b).shipped_fraction, r.at(0, b).shipped_fraction);
    EXPECT_NEAR(r.at(1, b).shipped_fraction, 1.0, 1e-9);
    // Doubling every line cost raises the final cost but ships the same.
    EXPECT_GT(r.at(2, b).final_cost_per_shipped, r.at(0, b).final_cost_per_shipped);
    EXPECT_EQ(r.at(2, b).shipped_fraction, r.at(0, b).shipped_fraction);
  }
}

}  // namespace
}  // namespace ipass::kits
