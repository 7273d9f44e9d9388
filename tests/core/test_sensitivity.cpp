#include "core/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/area_assess.hpp"
#include "core/cost_assess.hpp"
#include "core/methodology.hpp"
#include "gps/bom.hpp"
#include "gps/casestudy.hpp"
#include "kits/registry.hpp"

namespace ipass::core {
namespace {

struct Fixture {
  gps::GpsCaseStudy study = gps::make_gps_case_study();
  const BuildUp& buildup(int i) const { return study.buildups[static_cast<std::size_t>(i)]; }
};

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The pre-pipeline implementation, kept verbatim as the differential
// reference: re-run area realization + flow construction + analytic
// evaluation for every perturbation.
SensitivityReport legacy_cost_sensitivity(const FunctionalBom& bom, const BuildUp& buildup,
                                          const TechKits& kits, double rel_step) {
  auto final_cost = [&](const BuildUp& b) {
    const AreaResult area = assess_area(bom, b, kits);
    return assess_cost(area, b).report.final_cost_per_shipped;
  };
  const double base = final_cost(buildup);

  SensitivityReport report;
  report.rel_step = rel_step;
  for (const SensitivityInput& input : standard_inputs()) {
    SensitivityRow row;
    row.input = input.name;
    row.base_cost = base;
    row.perturbed_cost = final_cost(input.perturb(buildup, rel_step));
    row.elasticity = ((row.perturbed_cost - base) / base) / rel_step;
    report.rows.push_back(std::move(row));
  }
  std::sort(report.rows.begin(), report.rows.end(),
            [](const SensitivityRow& a, const SensitivityRow& b) {
              return std::abs(a.elasticity) > std::abs(b.elasticity);
            });
  return report;
}

TEST(Sensitivity, ReportCoversAllStandardInputs) {
  Fixture fx;
  const SensitivityReport r =
      cost_sensitivity(fx.study.bom, fx.buildup(3), fx.study.kits);
  EXPECT_EQ(r.rows.size(), standard_inputs().size());
  // Sorted by magnitude.
  for (std::size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(std::abs(r.rows[i - 1].elasticity), std::abs(r.rows[i].elasticity));
  }
}

TEST(Sensitivity, ChipCostsDominateEverywhere) {
  // Fig 5's "thereof chip cost" is over half the direct cost, so the chip
  // inputs must carry the largest elasticities.
  Fixture fx;
  for (const int b : {0, 1, 2, 3}) {
    const SensitivityReport r =
        cost_sensitivity(fx.study.bom, fx.buildup(b), fx.study.kits);
    bool chip_in_top3 = false;
    for (std::size_t i = 0; i < 3 && i < r.rows.size(); ++i) {
      if (r.rows[i].input.find("chip") != std::string::npos ||
          r.rows[i].input.find("DSP") != std::string::npos) {
        chip_in_top3 = true;
      }
    }
    EXPECT_TRUE(chip_in_top3) << "build-up " << b + 1;
  }
}

TEST(Sensitivity, SubstrateYieldMattersMoreOnIpBuildUps) {
  Fixture fx;
  auto substrate_yield_elasticity = [&](int b) {
    const SensitivityReport r =
        cost_sensitivity(fx.study.bom, fx.buildup(b), fx.study.kits);
    for (const SensitivityRow& row : r.rows) {
      if (row.input == "substrate yield (loss)") return std::abs(row.elasticity);
    }
    return 0.0;
  };
  // 90% IP substrate (build-up 3) vs 99.99% PCB (build-up 1).
  EXPECT_GT(substrate_yield_elasticity(2), 5.0 * substrate_yield_elasticity(0));
}

TEST(Sensitivity, CostInputsHavePositiveElasticity) {
  Fixture fx;
  const SensitivityReport r =
      cost_sensitivity(fx.study.bom, fx.buildup(1), fx.study.kits);
  for (const SensitivityRow& row : r.rows) {
    if (row.input.find("cost") != std::string::npos ||
        row.input == "NRE") {
      EXPECT_GE(row.elasticity, 0.0) << row.input;
    }
    if (row.input.find("yield") != std::string::npos) {
      // Improving yield (shrinking the loss) reduces cost.
      EXPECT_LE(row.elasticity, 1e-9) << row.input;
    }
  }
}

TEST(Sensitivity, ElasticitiesAreScaleFree) {
  // Halving the step should leave the (first-order) elasticity roughly
  // unchanged.
  Fixture fx;
  const SensitivityReport big =
      cost_sensitivity(fx.study.bom, fx.buildup(3), fx.study.kits, 0.10);
  const SensitivityReport small =
      cost_sensitivity(fx.study.bom, fx.buildup(3), fx.study.kits, 0.02);
  for (const SensitivityRow& rb : big.rows) {
    for (const SensitivityRow& rs : small.rows) {
      if (rb.input != rs.input) continue;
      if (std::abs(rb.elasticity) < 0.01) continue;
      EXPECT_NEAR(rb.elasticity, rs.elasticity, 0.2 * std::abs(rb.elasticity) + 0.01)
          << rb.input;
    }
  }
}

TEST(Sensitivity, TableRendering) {
  Fixture fx;
  const SensitivityReport r =
      cost_sensitivity(fx.study.bom, fx.buildup(2), fx.study.kits);
  const std::string t = r.to_table();
  EXPECT_NE(t.find("elasticity"), std::string::npos);
  EXPECT_NE(t.find("substrate"), std::string::npos);
}

TEST(Sensitivity, Preconditions) {
  Fixture fx;
  EXPECT_THROW(cost_sensitivity(fx.study.bom, fx.buildup(0), fx.study.kits, 0.0),
               PreconditionError);
  EXPECT_THROW(cost_sensitivity(fx.study.bom, fx.buildup(0), fx.study.kits, 1.5),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Pipeline-backed path: bit-identical to the pre-refactor implementation,
// for every thread count.

TEST(Sensitivity, PipelineBackedMatchesLegacyBitwise) {
  Fixture fx;
  for (const int b : {0, 1, 2, 3}) {
    const SensitivityReport legacy =
        legacy_cost_sensitivity(fx.study.bom, fx.buildup(b), fx.study.kits, 0.05);
    const SensitivityReport now =
        cost_sensitivity(fx.study.bom, fx.buildup(b), fx.study.kits, 0.05);
    ASSERT_EQ(now.rows.size(), legacy.rows.size());
    for (std::size_t i = 0; i < now.rows.size(); ++i) {
      EXPECT_EQ(now.rows[i].input, legacy.rows[i].input) << "build-up " << b << " row " << i;
      EXPECT_TRUE(bits_equal(now.rows[i].base_cost, legacy.rows[i].base_cost))
          << "build-up " << b << " row " << i;
      EXPECT_TRUE(bits_equal(now.rows[i].perturbed_cost, legacy.rows[i].perturbed_cost))
          << "build-up " << b << " row " << i << ": " << now.rows[i].perturbed_cost
          << " vs " << legacy.rows[i].perturbed_cost;
      EXPECT_TRUE(bits_equal(now.rows[i].elasticity, legacy.rows[i].elasticity))
          << "build-up " << b << " row " << i;
    }
  }
}

// The served path hands in the area its compiled study already holds (with
// a volume override on the build-up, which never reaches area).  Its rows
// equal the path that realizes the area itself, and the legacy reference,
// to the bit: every built-in kit's build-ups, forward and central.
TEST(Sensitivity, CompiledAreaOverloadMatchesRealizingPathBitwise) {
  const FunctionalBom bom = gps::gps_front_end_bom();
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  for (const std::string& name : registry.names()) {
    const kits::ProcessKit& kit = registry.at(name);
    const TechKits tech = kits::apply_passives(kit);
    const std::shared_ptr<const CompiledStudy> study =
        compile_study(bom, kits::make_buildups(kit), tech, PipelineScope::CostOnly);
    for (std::size_t b = 0; b < study->buildups.size(); ++b) {
      BuildUp target = study->buildups[b];
      target.production.volume = 250000.0;
      for (const FiniteDifference diff :
           {FiniteDifference::Forward, FiniteDifference::Central}) {
        SensitivityOptions opt;
        opt.difference = diff;
        const SensitivityReport given =
            cost_sensitivity(bom, target, tech, study->areas[b], opt);
        const SensitivityReport realized = cost_sensitivity(bom, target, tech, opt);
        std::vector<SensitivityReport> references = {realized};
        if (diff == FiniteDifference::Forward) {
          references.push_back(legacy_cost_sensitivity(bom, target, tech, opt.rel_step));
        }
        for (const SensitivityReport& ref : references) {
          ASSERT_EQ(given.rows.size(), ref.rows.size());
          for (std::size_t i = 0; i < given.rows.size(); ++i) {
            const SensitivityRow& x = given.rows[i];
            const SensitivityRow& y = ref.rows[i];
            EXPECT_EQ(x.input, y.input) << name << " build-up " << b << " row " << i;
            EXPECT_TRUE(bits_equal(x.base_cost, y.base_cost) &&
                        bits_equal(x.perturbed_cost, y.perturbed_cost) &&
                        bits_equal(x.perturbed_cost_down, y.perturbed_cost_down) &&
                        bits_equal(x.elasticity, y.elasticity))
                << name << " build-up " << b << " row " << i << " (" << x.input << ")";
          }
        }
      }
    }
  }
}

TEST(Sensitivity, ThreadCountInvariant) {
  Fixture fx;
  for (const FiniteDifference diff :
       {FiniteDifference::Forward, FiniteDifference::Central}) {
    SensitivityOptions one;
    one.difference = diff;
    one.threads = 1;
    SensitivityOptions many = one;
    many.threads = 8;
    const SensitivityReport a =
        cost_sensitivity(fx.study.bom, fx.buildup(2), fx.study.kits, one);
    const SensitivityReport c =
        cost_sensitivity(fx.study.bom, fx.buildup(2), fx.study.kits, many);
    ASSERT_EQ(a.rows.size(), c.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
      EXPECT_EQ(a.rows[i].input, c.rows[i].input);
      EXPECT_TRUE(bits_equal(a.rows[i].perturbed_cost, c.rows[i].perturbed_cost));
      EXPECT_TRUE(bits_equal(a.rows[i].perturbed_cost_down, c.rows[i].perturbed_cost_down));
      EXPECT_TRUE(bits_equal(a.rows[i].elasticity, c.rows[i].elasticity));
    }
  }
}

TEST(Sensitivity, CentralDifferenceFields) {
  Fixture fx;
  SensitivityOptions opt;
  opt.difference = FiniteDifference::Central;
  opt.rel_step = 0.05;
  const SensitivityReport r =
      cost_sensitivity(fx.study.bom, fx.buildup(3), fx.study.kits, opt);
  EXPECT_EQ(r.difference, FiniteDifference::Central);
  for (const SensitivityRow& row : r.rows) {
    EXPECT_GT(row.perturbed_cost_down, 0.0) << row.input;
    // The reported elasticity is exactly the central-difference formula.
    EXPECT_TRUE(bits_equal(
        row.elasticity,
        ((row.perturbed_cost - row.perturbed_cost_down) / row.base_cost) / (2.0 * 0.05)))
        << row.input;
  }
  // Forward rows do not evaluate the downward perturbation.
  const SensitivityReport f =
      cost_sensitivity(fx.study.bom, fx.buildup(3), fx.study.kits, 0.05);
  EXPECT_EQ(f.difference, FiniteDifference::Forward);
  for (const SensitivityRow& row : f.rows) {
    EXPECT_EQ(row.perturbed_cost_down, 0.0) << row.input;
  }
}

TEST(Sensitivity, CentralDifferenceReducesNonlinearBias) {
  // On the 90%-yield IP substrate the cost is visibly convex in the yield
  // loss; a one-sided difference at a coarse step biases the elasticity,
  // the central difference at the same step stays close to the small-step
  // limit.
  Fixture fx;
  const auto elasticity_of = [&](const SensitivityReport& r, const char* name) {
    for (const SensitivityRow& row : r.rows) {
      if (row.input == name) return row.elasticity;
    }
    ADD_FAILURE() << "row not found: " << name;
    return 0.0;
  };
  const char* kRow = "substrate yield (loss)";

  SensitivityOptions tiny;  // the near-exact reference
  tiny.rel_step = 1e-4;
  const double ref = elasticity_of(
      cost_sensitivity(fx.study.bom, fx.buildup(2), fx.study.kits, tiny), kRow);

  SensitivityOptions coarse_fwd;
  coarse_fwd.rel_step = 0.2;
  const double fwd = elasticity_of(
      cost_sensitivity(fx.study.bom, fx.buildup(2), fx.study.kits, coarse_fwd), kRow);

  SensitivityOptions coarse_central = coarse_fwd;
  coarse_central.difference = FiniteDifference::Central;
  const double central = elasticity_of(
      cost_sensitivity(fx.study.bom, fx.buildup(2), fx.study.kits, coarse_central), kRow);

  EXPECT_LT(std::abs(central - ref), std::abs(fwd - ref));
}

}  // namespace
}  // namespace ipass::core
