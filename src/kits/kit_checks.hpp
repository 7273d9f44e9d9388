// The single range-check vocabulary for process kits.
//
// validate_kit() (in-memory kits, builtin or programmatic) and the kit-JSON
// loader used to carry their own copies of these range checks, and the
// copies drifted — the loader's QModel gate lived outside validate_kit, and
// messages/error codes differed by door.  Every kit rejection now goes
// through these helpers: one message shape ("kit '<scope>': <field> <why>")
// that always names the kit scope and the field, and one machine-readable
// code (ErrorCode::Validation) no matter which entry point saw the kit.
#pragma once

#include <cmath>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/strfmt.hpp"

namespace ipass::kits::checks {

// A field's name in a message: a prefix and a field, joined only when a
// check fails.  Validation runs on every served inline kit and nearly every
// check passes, so no name string is built on the accept path.
struct FieldName {
  FieldName(const char* field) : field(field) {}  // implicit: a plain name
  FieldName(std::string_view prefix, const char* field) : prefix(prefix), field(field) {}
  std::string str() const { return std::string(prefix) + field; }

  std::string_view prefix;
  const char* field;
};

inline void fail(const std::string& scope, const FieldName& field, const std::string& what) {
  throw PreconditionError(
      strf("kit '%s': %s %s", scope.c_str(), field.str().c_str(), what.c_str()),
      ErrorCode::Validation);
}

inline void check(bool ok, const std::string& scope, const FieldName& field,
                  const char* what) {
  if (!ok) fail(scope, field, what);
}

inline void check_yield(double value, const std::string& scope, const FieldName& field) {
  check(value > 0.0 && value <= 1.0, scope, field, "must be a yield in (0, 1]");
}

inline void check_coverage(double value, const std::string& scope, const FieldName& field) {
  check(value >= 0.0 && value <= 1.0, scope, field, "must be a coverage in [0, 1]");
}

inline void check_cost(double value, const std::string& scope, const FieldName& field) {
  check(value >= 0.0 && std::isfinite(value), scope, field,
        "must be a finite non-negative cost");
}

inline void check_positive(double value, const std::string& scope, const FieldName& field) {
  check(value > 0.0 && std::isfinite(value), scope, field,
        "must be positive and finite");
}

inline void check_scale(double value, const std::string& scope, const FieldName& field) {
  check(value >= 0.0 && std::isfinite(value), scope, field,
        "must be non-negative and finite");
}

// QModel gate shared by the loader (before constructing the rf::QModel)
// and validate_kit (on the constructed model): the writer encodes lossless
// as exactly 0, and a negative q_peak is a sign typo, not a request for
// infinite Q.  `at` prefixes the field name ("passives.decap_cap.quality.").
inline void check_qmodel_peak(double q_peak, const std::string& scope, const char* at) {
  check(q_peak >= 0.0, scope, FieldName(at, "q_peak"), "must be >= 0 (0 = lossless)");
}

// Role dispatch for the scalar field tables in core/buildup.hpp (one method
// per corner-scaling role): validate_production() iterates the tables with
// this instead of a hand-enumerated field list, so the completeness
// static_asserts under the tables also guarantee validation coverage.
struct ScalarFieldChecker {
  const std::string& scope;
  std::string prefix;  // e.g. "production." or "production.dies[2]."

  FieldName label(const char* field) const { return {prefix, field}; }
  void Cost(double v, const char* f) const { check_cost(v, scope, label(f)); }
  void Yield(double v, const char* f) const { check_yield(v, scope, label(f)); }
  void Coverage(double v, const char* f) const { check_coverage(v, scope, label(f)); }
  void Nre(double v, const char* f) const { check_cost(v, scope, label(f)); }
  void Volume(double v, const char* f) const { check_positive(v, scope, label(f)); }
};

}  // namespace ipass::kits::checks
