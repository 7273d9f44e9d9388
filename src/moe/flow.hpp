// Production-flow model: the re-implementation of the Modular Optimization
// Environment (MOE) described in section 4.3 / Fig 4 of the paper and in
// Scheffler et al., IEEE D&T 15(3), 1998.
//
// A FlowModel is a main production line: the carrier (substrate) enters at
// the Fabricate step and moves through Process / Assemble / Test / Package
// steps.  Assemble steps consume component lots (dies, SMDs) with their own
// unit cost and incoming yield.  Test steps detect latent faults with a
// fault coverage and route failing units to SCRAP (optionally through a
// rework loop).  Whatever leaves the last step is collected ("Modules to be
// shipped" in Fig 4).
//
// Faults are latent: a step with yield y < 1 plants Poisson(-ln y) faults
// that only a test can reveal — exactly the paper's "Yield figures are
// translated into faults using Monte Carlo simulation".
#pragma once

#include <string>
#include <vector>

#include "moe/yield.hpp"

namespace ipass::moe {

// Cost attribution buckets (Fig 5 splits final cost into direct cost,
// "thereof chip cost", and yield loss; we keep a finer ledger).
enum class CostCategory : int {
  Substrate = 0,
  Chips,
  Passives,
  Assembly,
  Packaging,
  Test,
  Other,
};
inline constexpr int kCostCategoryCount = 7;

const char* cost_category_name(CostCategory category);

// Per-category money ledger.
struct Ledger {
  double v[kCostCategoryCount] = {0, 0, 0, 0, 0, 0, 0};

  void add(CostCategory category, double amount) { v[static_cast<int>(category)] += amount; }
  double get(CostCategory category) const { return v[static_cast<int>(category)]; }
  double total() const;
  Ledger& operator+=(const Ledger& other);
  Ledger scaled(double factor) const;
};

// A component lot consumed by an Assemble step.
struct ComponentInput {
  std::string name;
  int count = 1;
  double unit_cost = 0.0;
  double incoming_yield = 1.0;  // probability one delivered part is good
  CostCategory category = CostCategory::Passives;
};

// What a test does with a detected-bad unit.
struct FailPolicy {
  bool rework = false;
  double rework_cost = 0.0;
  double rework_success = 0.0;  // probability the rework removes the fault(s)
  int max_attempts = 1;
};

struct Step {
  enum class Kind { Fabricate, Process, Assemble, Test, Package };

  Kind kind = Kind::Process;
  std::string name;
  double cost = 0.0;  // booked per unit entering the step
  CostCategory category = CostCategory::Assembly;
  YieldSpec yield = FixedYield{1.0};
  // Assemble only:
  std::vector<ComponentInput> components;
  double cost_per_component = 0.0;
  // Test only:
  double fault_coverage = 0.0;
  FailPolicy on_fail;

  // Number of consumed components (one unit's worth).
  int component_count() const;
  // Total fault intensity added by this step (step yield + incoming
  // component yields).
  double added_fault_intensity() const;
};

class FlowModel {
 public:
  FlowModel(std::string name, double volume, double nre_total);

  const std::string& name() const { return name_; }
  double volume() const { return volume_; }
  double nre_total() const { return nre_; }
  const std::vector<Step>& steps() const { return steps_; }

  // Builder API (returns *this for chaining).
  FlowModel& fabricate(std::string name, double cost, YieldSpec yield,
                       CostCategory category = CostCategory::Substrate);
  FlowModel& process(std::string name, double cost, YieldSpec yield,
                     CostCategory category = CostCategory::Assembly);
  FlowModel& assemble(std::string name, double step_cost, double cost_per_component,
                      YieldSpec yield, std::vector<ComponentInput> components,
                      CostCategory category = CostCategory::Assembly);
  FlowModel& test(std::string name, double cost, double fault_coverage,
                  FailPolicy on_fail = {});
  FlowModel& package(std::string name, double cost, YieldSpec yield);

  // Direct cost of one unit passing every step once (no yield loss, no NRE).
  double direct_unit_cost() const;
  Ledger direct_unit_ledger() const;

  // Probability that a unit picks up no fault at all along the line.
  double line_yield() const;

 private:
  std::string name_;
  double volume_ = 0.0;
  double nre_ = 0.0;
  std::vector<Step> steps_;
};

}  // namespace ipass::moe
