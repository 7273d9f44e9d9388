#include "core/cost_assess.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "common/units.hpp"
#include "core/flow_walk_kernel.hpp"

namespace ipass::core {

namespace {

using moe::CostCategory;
using moe::FixedYield;
using moe::Ledger;
using moe::PerJointYield;
using moe::YieldSpec;
using StepKind = moe::Step::Kind;

YieldSpec step_yield(double value, int joints, YieldSemantics semantics) {
  if (semantics == YieldSemantics::PerJoint && joints > 1) {
    return PerJointYield{value, joints};
  }
  return FixedYield{value};
}

// Precondition gate of emit_flow: a malformed die list is rejected up front
// with a message naming the die and field, instead of surfacing as a
// generic ComponentInput error from deep inside a walk.
void check_die_list(const ProductionData& pd) {
  if (pd.dies.size() > kMaxProductionDies) {
    throw PreconditionError(
        strf("ProductionData: %zu dies exceed the supported maximum of %zu",
             pd.dies.size(), kMaxProductionDies));
  }
  if (pd.dies.empty()) return;
  for (std::size_t i = 0; i < pd.dies.size(); ++i) {
    const DieSpec& d = pd.dies[i];
    const auto fail = [&](const char* field, const char* what) {
      throw PreconditionError(strf("ProductionData: dies[%zu] '%s': %s %s", i,
                                   d.name.c_str(), field, what));
    };
    if (!(d.cost >= 0.0 && std::isfinite(d.cost))) {
      fail("cost", "must be a finite non-negative cost");
    }
    if (!(d.yield > 0.0 && d.yield <= 1.0)) fail("yield", "must be a yield in (0, 1]");
    if (!(d.kgd_test_cost >= 0.0 && std::isfinite(d.kgd_test_cost))) {
      fail("kgd_test_cost", "must be a finite non-negative cost");
    }
    if (!(d.kgd_escape >= 0.0 && d.kgd_escape <= 1.0)) {
      fail("kgd_escape", "must be an escape probability in [0, 1]");
    }
    if (!(d.nre >= 0.0 && std::isfinite(d.nre))) {
      fail("nre", "must be finite and non-negative");
    }
  }
  require(pd.bond_cost >= 0.0 && std::isfinite(pd.bond_cost),
          "ProductionData: bond_cost must be a finite non-negative cost");
  require(pd.bond_yield > 0.0 && pd.bond_yield <= 1.0,
          "ProductionData: bond_yield must be a yield in (0, 1]");
}

// Widest component lot list a step can carry: the chip pair needs 2, a
// chiplet-bonding step needs one lot per die.
inline constexpr std::size_t kMaxLots = kMaxProductionDies;
static_assert(kMaxLots >= 2, "the chip pair needs two lots");

// One component lot of an emitted assemble step: a moe::ComponentInput
// that borrows its name instead of owning it.
struct Lot {
  const char* name;
  int count;
  double unit_cost;
  double incoming_yield;
  CostCategory category;
};

// The lots of one assemble step, in a fixed-size array so that emitting a
// flow allocates nothing (emit_flow's die-count check keeps n within
// kMaxLots).  Only lot[0, n) is ever written or read; the rest
// stays uninitialized because zeroing it, three times per emitted flow, was
// a measurable share of a batched lane.
struct Lots {
  Lot lot[kMaxLots];
  std::size_t n = 0;

  void add(const Lot& l) { lot[n++] = l; }
};

// The production flow of Fig 4 for one (compiled build-up, production data)
// pair, written once for every cost engine.  It runs the preconditions,
// takes every branch decision and hands the steps, in line order, to the
// sink through FlowModel's builder verbs:
//   fabricate(cost, yield)                    the carrier; the sink names it
//   process(name, cost, yield, category)
//   assemble(name, cost_per_component, yield, lots)   step cost 0, Assembly
//   test(name, cost, coverage)
//   package(name, cost, yield)
// A new production step is added here and nowhere else.
template <class Sink>
void emit_flow(const CompiledCostModel& m, const ProductionData& pd, Sink& sink) {
  require(pd.volume > 0.0, "FlowModel: volume must be positive");
  require(pd.nre_total >= 0.0, "FlowModel: NRE must be non-negative");
  check_die_list(pd);
  if (m.smd_count > 0 && m.smd_on_laminate && !m.uses_laminate) {
    throw PreconditionError(
        "BuildUp: smd_on_laminate requires uses_laminate (without a laminate the "
        "SMD step and its parts cost would be dropped)");
  }
  const auto test = [&](const char* name, double cost, double coverage) {
    require(coverage >= 0.0 && coverage <= 1.0,
            "FlowModel::test: coverage must be in [0,1]");
    sink.test(name, cost, coverage);
  };

  // --- carrier fabrication -------------------------------------------------
  sink.fabricate(m.substrate_cost, FixedYield{m.substrate_fab_yield});
  if (m.integrated_passive_steps) {
    // Structural steps of Fig 4; their cost and yield are folded into the
    // per-cm^2 substrate price and fab yield above.
    sink.process("Paste impression", 0.0, FixedYield{1.0}, CostCategory::Substrate);
    for (int i = 0; i < 2; ++i) {
      sink.process("Rerouting", 0.0, FixedYield{1.0}, CostCategory::Substrate);
    }
  }

  // --- dice ---------------------------------------------------------------
  const bool packaged = m.die_attach == tech::DieAttach::PackagedSmt;
  const bool wire_bonded = m.die_attach == tech::DieAttach::WireBond;
  Lots dice;
  dice.add({packaged ? "RF chip (TQFP)" : "RF chip (bare die)", 1, pd.rf_chip_cost,
            pd.rf_chip_yield, CostCategory::Chips});
  dice.add({packaged ? "DSP correlator (PQFP)" : "DSP correlator (bare die)", 1, pd.dsp_cost,
            pd.dsp_yield, CostCategory::Chips});
  sink.assemble(packaged      ? "Chip assembly (SMT)"
                : wire_bonded ? "Dice bonding"
                              : "Flip-chip attach",
                pd.chip_assembly_cost, step_yield(pd.chip_assembly_yield, 2, pd.semantics),
                dice);
  if (wire_bonded) {
    sink.process("Wire bonding", pd.wire_bond_cost * m.bond_count,
                 step_yield(pd.wire_bond_yield, m.bond_count, pd.semantics),
                 CostCategory::Assembly);
  }

  // --- chiplet dice (2.5D multi-die extension) -----------------------------
  if (!pd.dies.empty()) {
    // Known-good-die screening: a pure per-unit spend — every started module
    // pays one screen per die; the screen's yield effect rides on the bonded
    // components below through kgd_escaped_yield.
    double kgd_cost = 0.0;
    for (const DieSpec& d : pd.dies) kgd_cost += d.kgd_test_cost;
    sink.process("KGD screening", kgd_cost, FixedYield{1.0}, CostCategory::Test);

    // Each die is a count-1 component whose incoming yield is what survives
    // its screen; the bond yield compounds per attach.
    Lots chiplets;
    for (const DieSpec& d : pd.dies) {
      chiplets.add({d.name.c_str(), 1, d.cost, kgd_escaped_yield(d.yield, d.kgd_escape),
                    CostCategory::Chips});
    }
    sink.assemble("Chiplet bonding", pd.bond_cost,
                  PerJointYield{pd.bond_yield, static_cast<int>(pd.dies.size())}, chiplets);
  }

  // --- SMD passives, on the carrier or on the laminate ---------------------
  const auto mount_smds = [&](const char* name) {
    Lots smds;
    smds.add({"SMD passives", m.smd_count, m.smd_parts_cost / m.smd_count, 1.0,
              CostCategory::Passives});
    sink.assemble(name, pd.smd_assembly_cost,
                  step_yield(pd.smd_assembly_yield, m.smd_count, pd.semantics), smds);
  };
  if (m.smd_count > 0 && !m.smd_on_laminate) mount_smds("SMD mounting");

  // --- functional test before packaging (Fig 4) ---------------------------
  if (pd.functional_test_coverage > 0.0) {
    test("Functional test", pd.functional_test_cost, pd.functional_test_coverage);
  }

  // --- packaging -----------------------------------------------------------
  if (m.uses_laminate) {
    sink.package("Mount on laminate (BGA)", pd.packaging_cost,
                 FixedYield{pd.packaging_yield});
    if (m.smd_count > 0 && m.smd_on_laminate) mount_smds("SMD mounting (laminate)");
  }

  // --- final test -----------------------------------------------------------
  test("Final test", pd.final_test_cost, pd.final_test_coverage);
}

// Sink that builds the moe::FlowModel the analytic and Monte-Carlo engines
// walk.
struct FlowModelSink {
  moe::FlowModel flow;
  const std::string& carrier;  // the substrate's name

  void fabricate(double cost, const YieldSpec& yield) { flow.fabricate(carrier, cost, yield); }
  void process(const char* name, double cost, const YieldSpec& yield, CostCategory category) {
    flow.process(name, cost, yield, category);
  }
  void assemble(const char* name, double cost_per_component, const YieldSpec& yield,
                const Lots& lots) {
    std::vector<moe::ComponentInput> components;
    components.reserve(lots.n);
    for (std::size_t c = 0; c < lots.n; ++c) {
      const Lot& l = lots.lot[c];
      components.push_back({l.name, l.count, l.unit_cost, l.incoming_yield, l.category});
    }
    flow.assemble(name, 0.0, cost_per_component, yield, std::move(components));
  }
  void test(const char* name, double cost, double coverage) { flow.test(name, cost, coverage); }
  void package(const char* name, double cost, const YieldSpec& yield) {
    flow.package(name, cost, yield);
  }
};

}  // namespace

CompiledCostModel compile_cost_model(const AreaResult& area, const BuildUp& buildup) {
  CompiledCostModel m;
  m.substrate_cost =
      mm2_to_cm2(area.substrate.area_mm2) * buildup.substrate.cost_per_cm2;
  m.substrate_fab_yield = buildup.substrate.fab_yield;
  m.integrated_passive_steps = buildup.substrate.supports_integrated_passives;
  m.die_attach = buildup.die_attach;
  if (m.die_attach == tech::DieAttach::WireBond) {
    // Bond count from the die specs (68 + 144 = 212 in the paper).
    m.bond_count = tech::gps_rf_chip().pad_count + tech::gps_dsp_correlator().pad_count;
  }
  m.smd_count = area.bom.smd_placement_count();
  m.smd_parts_cost = area.bom.smd_parts_cost();
  m.uses_laminate = buildup.uses_laminate;
  m.smd_on_laminate = buildup.smd_on_laminate;
  return m;
}

moe::FlowModel build_flow(const AreaResult& area, const BuildUp& buildup) {
  const ProductionData& pd = buildup.production;
  FlowModelSink sink{moe::FlowModel(buildup.name, pd.volume, effective_nre(pd)),
                     buildup.substrate.name};
  emit_flow(compile_cost_model(area, buildup), pd, sink);
  return std::move(sink.flow);
}

namespace {

// ---------------------------------------------------------------------------
// Compiled batch walk.
//
// Each lane's flow is emitted by emit_flow() into a flat step array and
// walked straight away through the shared flow-walk kernel, so a lane's
// CostSummary is bit-identical to the FlowModel path no matter how the
// sweep was batched.  The lanes of one batch share the transcendental
// work: a step's lambda is reused from the previous lane when its yield
// inputs repeat, and test-step exponentials go through caches that live for
// the whole batch.

// Upper bound on steps: fabricate + 3 IP + chips + bonds + KGD screening +
// chiplet bonding + SMD + functional test + package + laminate SMD +
// final test.
inline constexpr int kMaxFlatSteps = 14;

struct FlatLot {
  int count;
  CostCategory category;
  double unit_cost;
};

// One flattened step: its skeleton (kind, category, lot counts and
// categories) and the lane's numbers.  `cost` is the walk's already
// combined direct step cost (for tests: the test cost); `lambda` and
// `coverage` are only read for their step kind.  LaneSink writes every
// field the walk reads before the walk runs, so the fields carry no
// initializers: zeroing all the slots on every batched call was a
// measurable share of a one-lane call.
struct FlatStep {
  StepKind kind;
  CostCategory category;
  int n_lots;
  double cost;
  double lambda;
  double coverage;
  FlatLot lot[kMaxLots];
};

// Mirrors one ComponentInput's contribution to Step::added_fault_intensity().
double component_lambda(double incoming_yield, int count) {
  require(incoming_yield > 0.0 && incoming_yield <= 1.0,
          "ComponentInput: incoming yield must be in (0,1]");
  return -std::log(incoming_yield) * count;
}

bool same_yield(const YieldSpec& a, const YieldSpec& b) {
  if (const auto* x = std::get_if<FixedYield>(&a)) {
    const auto* y = std::get_if<FixedYield>(&b);
    return y && x->value == y->value;
  }
  if (const auto* x = std::get_if<PerJointYield>(&a)) {
    const auto* y = std::get_if<PerJointYield>(&b);
    return y && x->per_joint == y->per_joint && x->joints == y->joints;
  }
  return false;  // emit_flow never emits an AreaYield
}

// The yield inputs one step slot's lambda was last computed from
// (n_lots < 0: none yet).
struct LambdaMemo {
  YieldSpec yield;
  int n_lots = -1;
  double lot_yield[kMaxLots] = {};
  int lot_count[kMaxLots] = {};
  double lambda = 0.0;
};

// Sink that flattens one lane's flow for the walk.  The walk's per-step
// direct cost `s.cost + s.cost_per_component * component_count` is
// precombined here with the FlowModel path's operands and order, so no bit
// changes (a dropped `+ 0.0` term is exact for the non-negative costs
// booked along a flow).  A step's lambda is the previous lane's whenever
// its yield inputs are equal: the -ln chains are pure functions, so equal
// inputs give equal bits, and sweeps rarely vary yields lane to lane (see
// ExpCache).  Costs are always per-lane; they are the cheap part.
struct LaneSink {
  int n_steps = 0;
  FlatStep steps[kMaxFlatSteps];
  LambdaMemo memo[kMaxFlatSteps];  // one per step slot, kept across lanes

  void fabricate(double cost, const YieldSpec& yield) {
    step(StepKind::Fabricate, CostCategory::Substrate, cost, yield, nullptr);
  }
  void process(const char*, double cost, const YieldSpec& yield, CostCategory category) {
    step(StepKind::Process, category, cost, yield, nullptr);
  }
  void assemble(const char*, double cost_per_component, const YieldSpec& yield,
                const Lots& lots) {
    int count = 0;
    for (std::size_t c = 0; c < lots.n; ++c) count += lots.lot[c].count;
    step(StepKind::Assemble, CostCategory::Assembly, cost_per_component * count, yield, &lots);
  }
  void package(const char*, double cost, const YieldSpec& yield) {
    step(StepKind::Package, CostCategory::Packaging, cost, yield, nullptr);
  }
  void test(const char*, double cost, double coverage) {
    FlatStep& s = steps[next(StepKind::Test, CostCategory::Test)];
    s.cost = cost;
    s.coverage = coverage;
  }

 private:
  int next(StepKind kind, CostCategory category) {
    ensure(n_steps < kMaxFlatSteps, "emit_flow: more steps than kMaxFlatSteps");
    FlatStep& s = steps[n_steps];
    s.kind = kind;
    s.category = category;
    s.n_lots = 0;
    return n_steps++;
  }

  void step(StepKind kind, CostCategory category, double cost, const YieldSpec& yield,
            const Lots* lots) {
    const int n_lots = lots ? static_cast<int>(lots->n) : 0;
    const int i = next(kind, category);
    FlatStep& s = steps[i];
    LambdaMemo& m = memo[i];
    s.cost = cost;
    s.n_lots = n_lots;
    bool reuse = m.n_lots == n_lots;
    for (int c = 0; c < n_lots; ++c) {
      const Lot& l = lots->lot[c];
      s.lot[c] = {l.count, l.category, l.unit_cost};
      reuse &= (m.lot_yield[c] == l.incoming_yield) & (m.lot_count[c] == l.count);
    }
    reuse = reuse && same_yield(m.yield, yield);
    if (!reuse) {
      double lambda = moe::fault_intensity(yield);
      for (int c = 0; c < n_lots; ++c) {
        const Lot& l = lots->lot[c];
        lambda += component_lambda(l.incoming_yield, l.count);
        m.lot_yield[c] = l.incoming_yield;
        m.lot_count[c] = l.count;
      }
      m.yield = yield;
      m.n_lots = n_lots;
      m.lambda = lambda;
    }
    s.lambda = m.lambda;
  }
};

// Step sequence the kernel iterates: plain indices into the flat steps.
struct LaneStepsView {
  int n_steps = 0;
  std::size_t size() const { return static_cast<std::size_t>(n_steps); }
  std::size_t operator[](std::size_t i) const { return i; }
};

// Transcendental memo shared by the lanes of a batch.  exp (like the log
// chains behind the lambdas) is a pure function, so equal argument bits
// give equal result bits — reusing the previous lane's value when the
// argument repeats changes nothing.  In calibration-style sweeps the yield
// inputs rarely vary across points, so almost every lane past the first
// hits the cache; that is the batch path's main win over W scalar calls.
// (operator== only conflates +0.0/-0.0, where exp agrees too.)
struct ExpCache {
  bool valid = false;
  double arg = 0.0;
  double value = 0.0;

  double operator()(double x) {
    if (!valid || arg != x) {
      valid = true;
      arg = x;
      value = std::exp(x);
    }
    return value;
  }
};

// The kernel-policy half both walks over one lane's flat steps share.
struct FlatWalk {
  const FlatStep* steps;

  bool is_test(std::size_t i) const { return steps[i].kind == StepKind::Test; }
  double coverage(std::size_t i) const { return steps[i].coverage; }

  // Compiled flows never rework.
  static double rework(std::size_t /*i*/, double /*detected*/) { return 0.0; }
  void on_scrapped(double /*scrapped*/) {}
};

// Ledger-capturing, no-rework instantiation of the shared walk kernel,
// reading one lane's flat steps.  Test-step exponentials go through the
// batch's shared caches: the kernel calls exp_value exactly once per test
// step, so the k-th call of every lane lands in slot k, and lanes of one
// build-up put the same test step there.
struct CompiledWalkPolicy : FlatWalk {
  ExpCache* test_exp;  // one slot per test step, shared across lanes
  Ledger spend;
  Ledger unit_acc;

  void book_test(std::size_t i, double alive) {
    const double cost = steps[i].cost;
    spend.add(CostCategory::Test, alive * cost);
    unit_acc.add(CostCategory::Test, cost);
  }

  double exp_value(double x) { return (*test_exp++)(x); }

  static const char* all_scrapped_message() {
    return "evaluate_compiled_cost: everything scrapped";
  }

  void book_step(std::size_t i, double alive) {
    const FlatStep& s = steps[i];
    spend.add(s.category, alive * s.cost);
    unit_acc.add(s.category, s.cost);
    for (int c = 0; c < s.n_lots; ++c) {
      const FlatLot& l = s.lot[c];
      spend.add(l.category, alive * l.unit_cost * l.count);
      unit_acc.add(l.category, l.unit_cost * l.count);
    }
  }

  double added_lambda(std::size_t i) const { return steps[i].lambda; }
};

// Scalar-spend instantiation of the shared walk kernel for the scenario
// grid: every booked cost scaled by cost_scale, every injected intensity by
// fault_scale.  A step books s.cost + (0.0 + its lots' unit_cost * count,
// in lot order): for the non-negative costs emit_flow produces, that is the
// FlowModel step cost plus its component sum to the bit, which
// scenario_grid.json pins.
struct CornerWalkPolicy : FlatWalk {
  ProcessCorner corner;
  double spend = 0.0;

  void book_test(std::size_t i, double alive) {
    spend += alive * (corner.cost_scale * steps[i].cost);
  }

  static double exp_value(double x) { return std::exp(x); }

  static const char* all_scrapped_message() {
    return "CornerWalk: corner scraps the entire line";
  }

  void book_step(std::size_t i, double alive) {
    const FlatStep& s = steps[i];
    double lots = 0.0;
    for (int c = 0; c < s.n_lots; ++c) lots += s.lot[c].unit_cost * s.lot[c].count;
    spend += alive * (corner.cost_scale * (s.cost + lots));
  }

  double added_lambda(std::size_t i) const { return corner.fault_scale * steps[i].lambda; }
};

}  // namespace

void evaluate_compiled_cost_batch(const CostEvalPoint* points, std::size_t n,
                                  CostSummary* out) {
  LaneSink sink;
  ExpCache test_exp[kMaxFlatSteps];
  ExpCache escape_exp;  // the epilogue's exp(-lambda)
  for (std::size_t i = 0; i < n; ++i) {
    const ProductionData& pd = *points[i].pd;
    sink.n_steps = 0;
    emit_flow(*points[i].model, pd, sink);
    CompiledWalkPolicy walk{{sink.steps}, test_exp, {}, {}};
    const WalkOutcome wo = walk_flow_steps(LaneStepsView{sink.n_steps}, walk);

    CostSummary r;
    r.volume = pd.volume;
    r.shipped_fraction = wo.alive;
    r.shipped_units = wo.alive * pd.volume;
    const double escape = escape_exp(-wo.lambda);
    r.good_fraction = wo.alive * escape;
    r.escaped_defect_rate = 1.0 - escape;
    r.direct_cost = walk.unit_acc.total();
    r.chip_cost_direct = walk.unit_acc.get(CostCategory::Chips);
    r.total_spend_per_started = walk.spend.total();
    const double nre = effective_nre(pd);
    r.nre_per_shipped = nre / (pd.volume * wo.alive);
    r.final_cost_per_shipped = (walk.spend.total() + nre / pd.volume) / wo.alive;
    r.yield_loss_per_shipped =
        r.final_cost_per_shipped - r.direct_cost - r.nre_per_shipped;
    out[i] = r;
  }
}

CostSummary evaluate_compiled_cost(const CompiledCostModel& model, const ProductionData& pd) {
  const CostEvalPoint point{&model, &pd};
  CostSummary out;
  evaluate_compiled_cost_batch(&point, 1, &out);
  return out;
}

void check_corner(const ProcessCorner& corner, const char* scope, const char* name) {
  const auto check = [&](double scale, const char* field) {
    if (!(scale >= 0.0 && std::isfinite(scale))) {
      const std::string where = name ? strf("%s '%s'", scope, name) : scope;
      throw PreconditionError(strf("%s: %s must be finite and non-negative, got %g",
                                   where.c_str(), field, scale));
    }
  };
  check(corner.fault_scale, "fault_scale");
  check(corner.cost_scale, "cost_scale");
}

struct CornerWalk::Steps {
  LaneSink sink;
};

CornerWalk::CornerWalk(const CompiledCostModel& model, const ProductionData& pd,
                       const ProcessCorner& baseline)
    : steps_(std::make_unique<Steps>()), baseline_(baseline) {
  emit_flow(model, pd, steps_->sink);
}

CornerWalk::CornerWalk(CornerWalk&&) noexcept = default;
CornerWalk::~CornerWalk() = default;

CornerOutcome CornerWalk::operator()(const ProcessCorner& corner) const {
  CornerWalkPolicy walk{{steps_->sink.steps},
                        {corner.fault_scale * baseline_.fault_scale,
                         corner.cost_scale * baseline_.cost_scale}};
  const WalkOutcome wo = walk_flow_steps(LaneStepsView{steps_->sink.n_steps}, walk);
  return {walk.spend, wo.alive};
}

CostAssessment assess_cost(const AreaResult& area, const BuildUp& buildup) {
  moe::FlowModel flow = build_flow(area, buildup);
  moe::CostReport report = moe::evaluate_analytic(flow);
  return CostAssessment{std::move(flow), std::move(report)};
}

moe::McReport assess_cost_monte_carlo(const AreaResult& area, const BuildUp& buildup,
                                      const moe::McOptions& options) {
  const moe::FlowModel flow = build_flow(area, buildup);
  return moe::evaluate_monte_carlo(flow, options);
}

}  // namespace ipass::core
