#include "core/cost_assess.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gps/bom.hpp"
#include "gps/casestudy.hpp"
#include "gps/table2.hpp"

namespace ipass::core {
namespace {

struct Fixture {
  FunctionalBom bom = gps::gps_front_end_bom();
  TechKits kits;
  gps::ConfidentialCosts cc = gps::calibrated_confidential_costs();

  AreaResult area(const BuildUp& b) const { return assess_area(bom, b, kits); }
};

TEST(CostAssess, FlowStructurePcb) {
  Fixture fx;
  const BuildUp b = gps::buildup_pcb_smd(fx.cc);
  const moe::FlowModel flow = build_flow(fx.area(b), b);
  // PCB: fabricate, chip SMT, SMD mounting, final test -- no packaging, no
  // functional test, no paste/rerouting steps.
  int tests = 0, packages = 0, processes = 0;
  for (const moe::Step& s : flow.steps()) {
    if (s.kind == moe::Step::Kind::Test) ++tests;
    if (s.kind == moe::Step::Kind::Package) ++packages;
    if (s.kind == moe::Step::Kind::Process) ++processes;
  }
  EXPECT_EQ(tests, 1);
  EXPECT_EQ(packages, 0);
  EXPECT_EQ(processes, 0);
}

TEST(CostAssess, FlowStructureIpSubstrateShowsFig4Steps) {
  Fixture fx;
  const BuildUp b = gps::buildup_mcm_fc_ip_smd(fx.cc);
  const moe::FlowModel flow = build_flow(fx.area(b), b);
  bool paste = false, rerouting = false, functional = false, laminate = false;
  for (const moe::Step& s : flow.steps()) {
    if (s.name == "Paste impression") paste = true;
    if (s.name == "Rerouting") rerouting = true;
    if (s.name == "Functional test") functional = true;
    if (s.name.find("laminate") != std::string::npos) laminate = true;
  }
  EXPECT_TRUE(paste);
  EXPECT_TRUE(rerouting);
  EXPECT_TRUE(functional);
  EXPECT_TRUE(laminate);
}

TEST(CostAssess, WireBondStepOnlyForBuildUp2) {
  Fixture fx;
  const BuildUp b2 = gps::buildup_mcm_wb_smd(fx.cc);
  const moe::FlowModel f2 = build_flow(fx.area(b2), b2);
  bool wb2 = false;
  for (const moe::Step& s : f2.steps()) {
    if (s.name == "Wire bonding") {
      wb2 = true;
      // 212 bonds at 0.01 each.
      EXPECT_NEAR(s.cost, 2.12, 1e-12);
    }
  }
  EXPECT_TRUE(wb2);
  const BuildUp b3 = gps::buildup_mcm_fc_ip(fx.cc);
  const moe::FlowModel f3 = build_flow(fx.area(b3), b3);
  for (const moe::Step& s : f3.steps()) EXPECT_NE(s.name, "Wire bonding");
}

TEST(CostAssess, SubstrateCostScalesWithArea) {
  Fixture fx;
  const BuildUp b3 = gps::buildup_mcm_fc_ip(fx.cc);
  const AreaResult area = fx.area(b3);
  const moe::FlowModel flow = build_flow(area, b3);
  const moe::Step& fab = flow.steps().front();
  EXPECT_EQ(fab.kind, moe::Step::Kind::Fabricate);
  EXPECT_NEAR(fab.cost, area.substrate.area_mm2 / 100.0 * 2.25, 1e-9);
}

TEST(CostAssess, BareDiceCheaperButLowerYield) {
  Fixture fx;
  const BuildUp b1 = gps::buildup_pcb_smd(fx.cc);
  const BuildUp b3 = gps::buildup_mcm_fc_ip(fx.cc);
  const moe::CostReport r1 = assess_cost(fx.area(b1), b1).report;
  const moe::CostReport r3 = assess_cost(fx.area(b3), b3).report;
  // Direct chip spend: packaged > bare.
  EXPECT_GT(r1.direct_ledger.get(moe::CostCategory::Chips),
            r3.direct_ledger.get(moe::CostCategory::Chips));
  // But build-up 3 ships fewer good units ("yield loss ... not fully
  // tested chips" + 90% substrate).
  EXPECT_GT(r1.shipped_fraction, r3.shipped_fraction);
}

TEST(CostAssess, YieldSemanticsMatter) {
  Fixture fx;
  const BuildUp per_step = gps::buildup_mcm_wb_smd(fx.cc, YieldSemantics::PerStep);
  const BuildUp per_joint = gps::buildup_mcm_wb_smd(fx.cc, YieldSemantics::PerJoint);
  const double c_step =
      assess_cost(fx.area(per_step), per_step).report.final_cost_per_shipped;
  const double c_joint =
      assess_cost(fx.area(per_joint), per_joint).report.final_cost_per_shipped;
  // 212 bonds and 112 placements at per-joint yields scrap more units.
  EXPECT_GT(c_joint, c_step);
}

// SMDs meant for the laminate of a build-up without one have nowhere to
// go: both engines must refuse the build-up by name instead of silently
// dropping the SMD step and its parts cost.
TEST(CostAssess, LaminateSmdsWithoutLaminateAreRejected) {
  Fixture fx;
  BuildUp b = gps::buildup_mcm_wb_smd(fx.cc);
  b.smd_on_laminate = true;
  b.uses_laminate = false;
  const AreaResult area = fx.area(b);
  ASSERT_GT(area.bom.smd_placement_count(), 0);
  const auto expect_named = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "expected a PreconditionError";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("smd_on_laminate"), std::string::npos)
          << e.what();
    }
  };
  expect_named([&] { build_flow(area, b); });
  expect_named([&] { evaluate_compiled_cost(compile_cost_model(area, b), b.production); });
}

TEST(CostAssess, MonteCarloMatchesAnalytic) {
  Fixture fx;
  const BuildUp b4 = gps::buildup_mcm_fc_ip_smd(fx.cc);
  const AreaResult area = fx.area(b4);
  const moe::CostReport exact = assess_cost(area, b4).report;
  moe::McOptions opt;
  opt.samples = 60000;
  const moe::McReport mc = assess_cost_monte_carlo(area, b4, opt);
  EXPECT_NEAR(mc.report.final_cost_per_shipped, exact.final_cost_per_shipped,
              3.0 * mc.final_cost_ci95 + 1e-9);
}

// ---------------------------------------------------------------------------
// SoA batch walk: every lane bit-identical to its scalar evaluation, for
// any lane mix and any batch split.

bool summary_bits_equal(const CostSummary& a, const CostSummary& b) {
  static_assert(sizeof(CostSummary) == 11 * sizeof(double),
                "CostSummary gained a member; update the bit comparison");
  return std::memcmp(&a, &b, sizeof(CostSummary)) == 0;
}

// Randomly perturbed production data; roughly every third vector disables
// the functional test, changing the flattened step structure mid-batch.
ProductionData random_pd(const ProductionData& base, Pcg32& rng, bool drop_functional) {
  ProductionData pd = base;
  pd.rf_chip_cost *= rng.uniform(0.5, 2.0);
  pd.rf_chip_yield = rng.uniform(0.9, 1.0);
  pd.dsp_cost *= rng.uniform(0.5, 2.0);
  pd.dsp_yield = rng.uniform(0.9, 1.0);
  pd.chip_assembly_cost *= rng.uniform(0.5, 2.0);
  pd.chip_assembly_yield = rng.uniform(0.9, 1.0);
  pd.wire_bond_cost *= rng.uniform(0.5, 2.0);
  pd.wire_bond_yield = rng.uniform(0.99, 1.0);
  pd.smd_assembly_cost *= rng.uniform(0.5, 2.0);
  pd.smd_assembly_yield = rng.uniform(0.99, 1.0);
  pd.functional_test_cost = rng.uniform(0.0, 10.0);
  pd.functional_test_coverage = drop_functional ? 0.0 : rng.uniform(0.3, 0.95);
  pd.packaging_cost = rng.uniform(0.0, 5.0);
  pd.packaging_yield = rng.uniform(0.9, 1.0);
  pd.final_test_cost *= rng.uniform(0.5, 2.0);
  pd.final_test_coverage = rng.uniform(0.8, 0.999);
  pd.nre_total = rng.uniform(0.0, 1e5);
  pd.volume = rng.uniform(1e3, 1e6);
  pd.semantics = rng.bernoulli(0.3) ? YieldSemantics::PerJoint : YieldSemantics::PerStep;
  return pd;
}

TEST(CostAssessBatch, EveryLaneMatchesScalarBitwise) {
  Fixture fx;
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  Pcg32 rng(2026);
  for (const BuildUp& b : study.buildups) {
    const AreaResult area = fx.area(b);
    const CompiledCostModel model = compile_cost_model(area, b);
    constexpr std::size_t kN = 37;  // several full groups plus a ragged tail
    std::vector<ProductionData> pds;
    pds.reserve(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      pds.push_back(random_pd(b.production, rng, i % 3 == 0));
    }
    std::vector<CostEvalPoint> lanes(kN);
    for (std::size_t i = 0; i < kN; ++i) lanes[i] = {&model, &pds[i]};
    std::vector<CostSummary> batch(kN);
    evaluate_compiled_cost_batch(lanes.data(), kN, batch.data());
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_TRUE(summary_bits_equal(batch[i], evaluate_compiled_cost(model, pds[i])))
          << b.name << " lane " << i;
    }
  }
}

TEST(CostAssessBatch, MixedModelsAcrossLanes) {
  // Alternating compiled models (different structure every lane) must fall
  // back to short groups without changing any bit.
  Fixture fx;
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const BuildUp& b1 = study.buildups[0];
  const BuildUp& b4 = study.buildups[3];
  const CompiledCostModel m1 = compile_cost_model(fx.area(b1), b1);
  const CompiledCostModel m4 = compile_cost_model(fx.area(b4), b4);

  Pcg32 rng(7);
  constexpr std::size_t kN = 11;
  std::vector<ProductionData> pds;
  std::vector<CostEvalPoint> lanes(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const BuildUp& b = i % 2 ? b4 : b1;
    pds.push_back(random_pd(b.production, rng, false));
  }
  for (std::size_t i = 0; i < kN; ++i) lanes[i] = {i % 2 ? &m4 : &m1, &pds[i]};
  std::vector<CostSummary> batch(kN);
  evaluate_compiled_cost_batch(lanes.data(), kN, batch.data());
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(summary_bits_equal(
        batch[i], evaluate_compiled_cost(i % 2 ? m4 : m1, pds[i])))
        << "lane " << i;
  }
}

TEST(CostAssessBatch, SplitInvariance) {
  // One call over all lanes vs many calls over slices: identical bits
  // (group boundaries move, lane arithmetic must not).
  Fixture fx;
  const gps::GpsCaseStudy study = gps::make_gps_case_study();
  const BuildUp& b = study.buildups[3];
  const CompiledCostModel model = compile_cost_model(fx.area(b), b);
  Pcg32 rng(99);
  constexpr std::size_t kN = 23;
  std::vector<ProductionData> pds;
  for (std::size_t i = 0; i < kN; ++i) pds.push_back(random_pd(b.production, rng, i % 4 == 0));
  std::vector<CostEvalPoint> lanes(kN);
  for (std::size_t i = 0; i < kN; ++i) lanes[i] = {&model, &pds[i]};

  std::vector<CostSummary> whole(kN);
  evaluate_compiled_cost_batch(lanes.data(), kN, whole.data());
  std::vector<CostSummary> sliced(kN);
  for (std::size_t i = 0; i < kN; i += 3) {
    const std::size_t n = std::min<std::size_t>(3, kN - i);
    evaluate_compiled_cost_batch(lanes.data() + i, n, sliced.data() + i);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(summary_bits_equal(whole[i], sliced[i])) << "lane " << i;
  }
}

// ---------------------------------------------------------------------------
// Every branch of the flow emitter on every engine: integrated-passive
// steps, die attach, die count, SMD placement, laminate and functional test
// in every valid combination.  The compiled walk must reproduce the
// analytic FlowModel report to the bit, and one shuffled batch over all
// combinations must reproduce the per-lane results: the batch shares its
// lambda memo and exp caches between lanes of different step structure.

enum class SmdPlace { None, Carrier, Laminate };

struct EmitterCase {
  BuildUp buildup;
  AreaResult area;
  std::string label;
};

std::vector<EmitterCase> every_emitter_branch(const Fixture& fx) {
  const BuildUp base = gps::buildup_mcm_fc_ip_smd(fx.cc);
  const AreaResult with_smds = fx.area(base);
  AreaResult without_smds = with_smds;
  auto& parts = without_smds.bom.components;
  parts.erase(std::remove_if(parts.begin(), parts.end(),
                             [](const ComponentInstance& c) { return c.mount == Mount::Smd; }),
              parts.end());

  Pcg32 rng(4);
  std::vector<EmitterCase> cases;
  for (const bool ip : {false, true}) {
    for (const tech::DieAttach attach : {tech::DieAttach::PackagedSmt, tech::DieAttach::WireBond,
                                         tech::DieAttach::FlipChip}) {
      for (const std::size_t dies : {std::size_t{0}, std::size_t{1}, kMaxProductionDies}) {
        for (const SmdPlace smd : {SmdPlace::None, SmdPlace::Carrier, SmdPlace::Laminate}) {
          for (const bool laminate : {false, true}) {
            if (smd == SmdPlace::Laminate && !laminate) continue;  // rejected, see above
            for (const bool functional : {false, true}) {
              EmitterCase c;
              BuildUp& b = c.buildup;
              b = base;
              b.substrate.supports_integrated_passives = ip;
              b.die_attach = attach;
              b.uses_laminate = laminate;
              b.smd_on_laminate = smd == SmdPlace::Laminate;
              ProductionData& pd = b.production;
              pd.semantics =
                  cases.size() % 2 ? YieldSemantics::PerJoint : YieldSemantics::PerStep;
              pd.functional_test_cost = functional ? 3.5 : 0.0;
              pd.functional_test_coverage = functional ? 0.7 : 0.0;
              pd.packaging_cost = 2.25;
              pd.packaging_yield = 0.995;
              pd.bond_cost = 0.4;
              pd.bond_yield = 0.998;
              for (std::size_t d = 0; d < dies; ++d) {
                pd.dies.push_back({"chiplet " + std::to_string(d), 6.0 + d, 0.97 - 0.01 * d,
                                   0.25 * d, d % 2 ? 0.5 : 1.0, 1000.0 * d});
              }
              // Each yield moves in half the cases, independently, so that
              // neighbouring lanes of the shuffled batch below share some
              // yield inputs of a step and differ in others.
              const auto vary = [&](double& yield, double lo) {
                if (rng.bernoulli(0.5)) yield = rng.uniform(lo, 1.0);
              };
              vary(b.substrate.fab_yield, 0.85);
              vary(pd.rf_chip_yield, 0.9);
              vary(pd.dsp_yield, 0.9);
              vary(pd.chip_assembly_yield, 0.95);
              vary(pd.wire_bond_yield, 0.999);
              vary(pd.smd_assembly_yield, 0.99);
              vary(pd.packaging_yield, 0.95);
              vary(pd.bond_yield, 0.99);
              for (DieSpec& d : pd.dies) {
                vary(d.yield, 0.9);
                vary(d.kgd_escape, 0.0);
              }
              c.area = smd == SmdPlace::None ? without_smds : with_smds;
              c.label = std::string(ip ? "ip" : "no-ip") + "/" +
                        tech::die_attach_name(attach) + "/dies " + std::to_string(dies) +
                        "/smd " + std::to_string(static_cast<int>(smd)) +
                        (laminate ? "/laminate" : "") + (functional ? "/functional" : "");
              cases.push_back(std::move(c));
            }
          }
        }
      }
    }
  }
  return cases;
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(CostAssessEmitter, EveryBranchAgreesAcrossEngines) {
  Fixture fx;
  const std::vector<EmitterCase> cases = every_emitter_branch(fx);
  ASSERT_EQ(cases.size(), 180u);

  std::vector<CompiledCostModel> models;
  std::vector<CostSummary> scalar;
  models.reserve(cases.size());
  for (const EmitterCase& c : cases) {
    const moe::CostReport a = moe::evaluate_analytic(build_flow(c.area, c.buildup));
    models.push_back(compile_cost_model(c.area, c.buildup));
    const CostSummary s = evaluate_compiled_cost(models.back(), c.buildup.production);
    scalar.push_back(s);
    const std::pair<double, double> fields[] = {
        {a.volume, s.volume},
        {a.shipped_fraction, s.shipped_fraction},
        {a.shipped_units, s.shipped_units},
        {a.good_fraction, s.good_fraction},
        {a.escaped_defect_rate, s.escaped_defect_rate},
        {a.direct_cost, s.direct_cost},
        {a.chip_cost_direct(), s.chip_cost_direct},
        {a.yield_loss_per_shipped, s.yield_loss_per_shipped},
        {a.nre_per_shipped, s.nre_per_shipped},
        {a.final_cost_per_shipped, s.final_cost_per_shipped},
        {a.total_spend_per_started, s.total_spend_per_started},
    };
    static_assert(sizeof fields / sizeof fields[0] * sizeof(double) == sizeof(CostSummary),
                  "CostSummary gained a member; compare it here too");
    for (std::size_t f = 0; f < sizeof fields / sizeof fields[0]; ++f) {
      EXPECT_TRUE(bits_equal(fields[f].first, fields[f].second))
          << c.label << " field " << f << ": " << fields[f].first << " vs "
          << fields[f].second;
    }
  }

  // One batch over every combination, shuffled so structures interleave.
  std::vector<std::size_t> order(cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Pcg32 rng(18);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_u32() % i]);
  }
  std::vector<CostEvalPoint> lanes;
  for (const std::size_t i : order) lanes.push_back({&models[i], &cases[i].buildup.production});
  std::vector<CostSummary> batch(lanes.size());
  evaluate_compiled_cost_batch(lanes.data(), lanes.size(), batch.data());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_TRUE(summary_bits_equal(batch[k], scalar[order[k]])) << cases[order[k]].label;
  }
}

}  // namespace
}  // namespace ipass::core
