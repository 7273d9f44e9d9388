#include "moe/flow.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ipass::moe {

const char* cost_category_name(CostCategory category) {
  switch (category) {
    case CostCategory::Substrate: return "substrate";
    case CostCategory::Chips: return "chips";
    case CostCategory::Passives: return "passives";
    case CostCategory::Assembly: return "assembly";
    case CostCategory::Packaging: return "packaging";
    case CostCategory::Test: return "test";
    case CostCategory::Other: return "other";
  }
  return "?";
}

double Ledger::total() const {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum;
}

Ledger& Ledger::operator+=(const Ledger& other) {
  for (int i = 0; i < kCostCategoryCount; ++i) v[i] += other.v[i];
  return *this;
}

Ledger Ledger::scaled(double factor) const {
  Ledger out;
  for (int i = 0; i < kCostCategoryCount; ++i) out.v[i] = v[i] * factor;
  return out;
}

int Step::component_count() const {
  int sum = 0;
  for (const ComponentInput& c : components) sum += c.count;
  return sum;
}

double Step::added_fault_intensity() const {
  double lambda = fault_intensity(yield);
  for (const ComponentInput& c : components) {
    require(c.incoming_yield > 0.0 && c.incoming_yield <= 1.0,
            "ComponentInput: incoming yield must be in (0,1]");
    lambda += -std::log(c.incoming_yield) * c.count;
  }
  return lambda;
}

FlowModel::FlowModel(std::string name, double volume, double nre_total)
    : name_(std::move(name)), volume_(volume), nre_(nre_total) {
  require(volume_ > 0.0, "FlowModel: volume must be positive");
  require(nre_ >= 0.0, "FlowModel: NRE must be non-negative");
}

FlowModel& FlowModel::fabricate(std::string name, double cost, YieldSpec yield,
                                CostCategory category) {
  require(steps_.empty(), "FlowModel: fabricate must be the first step");
  Step s;
  s.kind = Step::Kind::Fabricate;
  s.name = std::move(name);
  s.cost = cost;
  s.category = category;
  s.yield = yield;
  steps_.push_back(std::move(s));
  return *this;
}

FlowModel& FlowModel::process(std::string name, double cost, YieldSpec yield,
                              CostCategory category) {
  Step s;
  s.kind = Step::Kind::Process;
  s.name = std::move(name);
  s.cost = cost;
  s.category = category;
  s.yield = yield;
  steps_.push_back(std::move(s));
  return *this;
}

FlowModel& FlowModel::assemble(std::string name, double step_cost, double cost_per_component,
                               YieldSpec yield, std::vector<ComponentInput> components,
                               CostCategory category) {
  Step s;
  s.kind = Step::Kind::Assemble;
  s.name = std::move(name);
  s.cost = step_cost;
  s.cost_per_component = cost_per_component;
  s.category = category;
  s.yield = yield;
  s.components = std::move(components);
  steps_.push_back(std::move(s));
  return *this;
}

FlowModel& FlowModel::test(std::string name, double cost, double fault_coverage,
                           FailPolicy on_fail) {
  require(fault_coverage >= 0.0 && fault_coverage <= 1.0,
          "FlowModel::test: coverage must be in [0,1]");
  Step s;
  s.kind = Step::Kind::Test;
  s.name = std::move(name);
  s.cost = cost;
  s.category = CostCategory::Test;
  s.fault_coverage = fault_coverage;
  s.on_fail = on_fail;
  steps_.push_back(std::move(s));
  return *this;
}

FlowModel& FlowModel::package(std::string name, double cost, YieldSpec yield) {
  Step s;
  s.kind = Step::Kind::Package;
  s.name = std::move(name);
  s.cost = cost;
  s.category = CostCategory::Packaging;
  s.yield = yield;
  steps_.push_back(std::move(s));
  return *this;
}

double FlowModel::direct_unit_cost() const { return direct_unit_ledger().total(); }

Ledger FlowModel::direct_unit_ledger() const {
  Ledger ledger;
  for (const Step& s : steps_) {
    ledger.add(s.category, s.cost + s.cost_per_component * s.component_count());
    for (const ComponentInput& c : s.components) {
      ledger.add(c.category, c.unit_cost * c.count);
    }
  }
  return ledger;
}

double FlowModel::line_yield() const {
  double lambda = 0.0;
  for (const Step& s : steps_) lambda += s.added_fault_intensity();
  return std::exp(-lambda);
}

}  // namespace ipass::moe
