#include "moe/flow.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ipass::moe {
namespace {

FlowModel simple_flow() {
  FlowModel flow("simple", 1000.0, 500.0);
  flow.fabricate("substrate", 2.0, FixedYield{0.99})
      .assemble("dice", 0.0, 0.1, FixedYield{0.99},
                {{"RF", 1, 21.0, 0.95, CostCategory::Chips},
                 {"DSP", 1, 30.4, 0.99, CostCategory::Chips}})
      .process("wire bond", 2.12, FixedYield{0.9999})
      .test("functional", 2.0, 0.95)
      .package("laminate", 7.30, FixedYield{0.968})
      .test("final", 10.0, 0.99);
  return flow;
}

TEST(Flow, BuilderStructure) {
  const FlowModel flow = simple_flow();
  ASSERT_EQ(flow.steps().size(), 6u);
  EXPECT_EQ(flow.steps()[0].kind, Step::Kind::Fabricate);
  EXPECT_EQ(flow.steps()[1].kind, Step::Kind::Assemble);
  EXPECT_EQ(flow.steps()[3].kind, Step::Kind::Test);
  EXPECT_EQ(flow.steps()[4].kind, Step::Kind::Package);
  EXPECT_EQ(flow.name(), "simple");
  EXPECT_DOUBLE_EQ(flow.volume(), 1000.0);
  EXPECT_DOUBLE_EQ(flow.nre_total(), 500.0);
}

TEST(Flow, FabricateMustBeFirst) {
  FlowModel flow("x", 10.0, 0.0);
  flow.process("p", 1.0, FixedYield{1.0});
  EXPECT_THROW(flow.fabricate("late", 1.0, FixedYield{1.0}), PreconditionError);
}

TEST(Flow, DirectUnitCostSumsEverything) {
  const FlowModel flow = simple_flow();
  // 2.0 + (0.1*2 + 21 + 30.4) + 2.12 + 2.0 + 7.30 + 10.0
  EXPECT_NEAR(flow.direct_unit_cost(), 2.0 + 0.2 + 51.4 + 2.12 + 2.0 + 7.30 + 10.0, 1e-9);
  const Ledger direct = flow.direct_unit_ledger();
  EXPECT_NEAR(direct.get(CostCategory::Chips), 51.4, 1e-12);
  EXPECT_NEAR(direct.get(CostCategory::Test), 12.0, 1e-12);
  EXPECT_NEAR(direct.get(CostCategory::Packaging), 7.30, 1e-12);
}

TEST(Flow, LineYieldMultipliesAllSources) {
  const FlowModel flow = simple_flow();
  const double expected =
      0.99 * 0.99 * 0.95 * 0.99 * 0.9999 * 0.968;  // substrate, attach, dice, wb, pkg
  EXPECT_NEAR(flow.line_yield(), expected, 1e-9);
}

TEST(Flow, StepHelpers) {
  const FlowModel flow = simple_flow();
  const Step& assemble = flow.steps()[1];
  EXPECT_EQ(assemble.component_count(), 2);
  EXPECT_NEAR(assemble.added_fault_intensity(),
              -std::log(0.99) - std::log(0.95) - std::log(0.99), 1e-12);
}

TEST(Flow, LedgerArithmetic) {
  Ledger a;
  a.add(CostCategory::Chips, 10.0);
  a.add(CostCategory::Test, 5.0);
  Ledger b;
  b.add(CostCategory::Chips, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.get(CostCategory::Chips), 12.0);
  EXPECT_DOUBLE_EQ(a.total(), 17.0);
  const Ledger half = a.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.total(), 8.5);
  EXPECT_DOUBLE_EQ(a.total(), 17.0);  // scaled() does not mutate
}

TEST(Flow, TestCoverageValidation) {
  FlowModel flow("x", 10.0, 0.0);
  EXPECT_THROW(flow.test("bad", 1.0, 1.5), PreconditionError);
  EXPECT_THROW(flow.test("bad", 1.0, -0.1), PreconditionError);
}

TEST(Flow, ConstructorValidation) {
  EXPECT_THROW(FlowModel("x", 0.0, 0.0), PreconditionError);
  EXPECT_THROW(FlowModel("x", 10.0, -1.0), PreconditionError);
}

TEST(Flow, CategoryNames) {
  EXPECT_STREQ(cost_category_name(CostCategory::Chips), "chips");
  EXPECT_STREQ(cost_category_name(CostCategory::Substrate), "substrate");
  EXPECT_STREQ(cost_category_name(CostCategory::Packaging), "packaging");
}

}  // namespace
}  // namespace ipass::moe
