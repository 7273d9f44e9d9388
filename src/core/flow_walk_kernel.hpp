// The one analytic cost-walk kernel.
//
// Three engines used to carry bit-identical copies of the same test-step
// walk — moe::evaluate_analytic (full ledger + rework + scrap tracking),
// core::CornerWalk (the scenario grid's per-corner fault/cost scaling) and
// core::evaluate_compiled_cost (ledger walk, no rework; both read emit_flow's
// flat steps) — and they drifted independently.  This header is now the
// single source of truth for the walk's control flow and survivor/fault
// arithmetic; the three sites are thin policy instantiations of
// walk_flow_steps().
//
// The math (Poisson latent faults, exact expectation — see moe/analytic.hpp):
// a non-test step books its cost against every alive unit and adds fault
// intensity; a test with coverage c scraps an alive unit with probability
// 1 - exp(-lambda c), optionally reworks detected units back in fault-free,
// and thins the survivors' intensity to lambda (1 - c).
//
// Bit-compatibility contract: the kernel owns exactly the expressions every
// pre-unification copy shared (p_detect, detected, survivors, the intensity
// mix); everything the copies did differently — what a booked cost looks
// like, whether rework exists, what scrap is worth — lives in the policy.
// A policy must therefore keep its own expressions literally unchanged or
// the golden files will fail.  `detected - recovered` and
// `survivors + recovered` are the seed expressions with `recovered == 0.0`
// for policies without rework (IEEE: x - 0.0 == x and x + 0.0 == x for
// every x >= 0 reachable here), so no-rework walks stay bit-identical.
//
// Deliberately dependency-free (common/ only): moe sits below core in the
// layering, and both instantiate this kernel.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/error.hpp"

namespace ipass::core {

// ---------------------------------------------------------------------------
// Multi-die chiplet terms (Chiplet Actuary / Tang & Xie), owned here so the
// analytic FlowModel walk and the two flat-step walks cost a die stack
// through literally the same expressions.

// Yield a die effectively contributes after known-good-die screening: the
// die arrives carrying -ln(yield) latent fault intensity, and a screen with
// escape probability e lets the fraction e of it through — yield^e.
// e = 1 (no screen) is the IEEE identity pow(y, 1.0) == y, so an
// unscreened die is bit-identical to feeding its raw yield in directly.
inline double kgd_escaped_yield(double die_yield, double kgd_escape) {
  return std::pow(die_yield, kgd_escape);
}

// Bonding yield compounds by die count: n attaches at per-attach yield y
// ship y^n of the stack.  moe::PerJointYield evaluates through this helper,
// so every engine's bond intensity is -ln of this exact value.
inline double compound_bond_yield(double bond_yield, int die_count) {
  return std::pow(bond_yield, die_count);
}

// What the walk itself tracks; everything else (spend, ledgers, scrap
// value) accumulates inside the policy.
struct WalkOutcome {
  double alive = 1.0;   // fraction of started units still in line
  double lambda = 0.0;  // expected latent faults per alive unit
};

// Steps: any sequence with size() and operator[](i) — a std::vector of
// step records, or a view of indices into a flat step array.
//
// Policy requirements (s is whatever steps[i] yields):
//   bool   is_test(s)
//   double coverage(s)              test only: fault coverage in [0,1]
//   void   book_test(s, alive)      book the test cost every alive unit pays
//   double exp_value(x)             must return std::exp(x) bits; called
//                                   exactly once per test step, so a batch
//                                   policy may memoize repeated arguments
//                                   across lanes (exp is pure: equal
//                                   argument bits give equal result bits)
//   double rework(s, detected)      book any rework spend, return the
//                                   recovered fraction (0.0 when the policy
//                                   or the step has no rework)
//   void   on_scrapped(scrapped)    called for every test, after rework
//   const char* all_scrapped_message()
//   void   book_step(s, alive)      non-test: book direct + component costs
//   double added_lambda(s)          non-test: fault intensity injected
template <class Steps, class Policy>
inline WalkOutcome walk_flow_steps(const Steps& steps, Policy& policy) {
  double alive = 1.0;
  double lambda = 0.0;
  const std::size_t n = steps.size();
  for (std::size_t i = 0; i < n; ++i) {
    auto&& s = steps[i];
    if (policy.is_test(s)) {
      policy.book_test(s, alive);
      const double coverage = policy.coverage(s);
      const double p_detect = 1.0 - policy.exp_value(-lambda * coverage);
      const double detected = alive * p_detect;
      const double recovered = policy.rework(s, detected);
      policy.on_scrapped(detected - recovered);
      const double survivors = alive - detected;
      const double lambda_survivors = lambda * (1.0 - coverage);
      // Recovered units rejoin fault-free; mix the intensities.
      alive = survivors + recovered;
      ensure(alive > 0.0, policy.all_scrapped_message());
      lambda = (survivors * lambda_survivors) / alive;
    } else {
      policy.book_step(s, alive);
      lambda += policy.added_lambda(s);
    }
  }
  return {alive, lambda};
}

}  // namespace ipass::core
