// JSON kit exchange: the %.17g writer and the strict loader must
// round-trip every kit bit-identically, and the loader must reject
// malformed documents and contract violations with messages naming the
// kit and field.
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "kits/kit_json.hpp"

namespace ipass::kits {
namespace {

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

#define EXPECT_BITS_EQ(a, b) \
  EXPECT_TRUE(bits_equal((a), (b))) << #a " = " << (a) << " vs " << (b)

void expect_qmodel_bits(const rf::QModel& a, const rf::QModel& b) {
  EXPECT_BITS_EQ(a.q_peak(), b.q_peak());
  EXPECT_BITS_EQ(a.f_peak(), b.f_peak());
  EXPECT_BITS_EQ(a.slope(), b.slope());
}

void expect_production_bits(const core::ProductionData& a, const core::ProductionData& b) {
  EXPECT_BITS_EQ(a.rf_chip_cost, b.rf_chip_cost);
  EXPECT_BITS_EQ(a.rf_chip_yield, b.rf_chip_yield);
  EXPECT_BITS_EQ(a.dsp_cost, b.dsp_cost);
  EXPECT_BITS_EQ(a.dsp_yield, b.dsp_yield);
  EXPECT_BITS_EQ(a.chip_assembly_cost, b.chip_assembly_cost);
  EXPECT_BITS_EQ(a.chip_assembly_yield, b.chip_assembly_yield);
  EXPECT_BITS_EQ(a.wire_bond_cost, b.wire_bond_cost);
  EXPECT_BITS_EQ(a.wire_bond_yield, b.wire_bond_yield);
  EXPECT_BITS_EQ(a.smd_assembly_cost, b.smd_assembly_cost);
  EXPECT_BITS_EQ(a.smd_assembly_yield, b.smd_assembly_yield);
  EXPECT_BITS_EQ(a.functional_test_cost, b.functional_test_cost);
  EXPECT_BITS_EQ(a.functional_test_coverage, b.functional_test_coverage);
  EXPECT_BITS_EQ(a.packaging_cost, b.packaging_cost);
  EXPECT_BITS_EQ(a.packaging_yield, b.packaging_yield);
  EXPECT_BITS_EQ(a.final_test_cost, b.final_test_cost);
  EXPECT_BITS_EQ(a.final_test_coverage, b.final_test_coverage);
  EXPECT_BITS_EQ(a.nre_total, b.nre_total);
  EXPECT_BITS_EQ(a.volume, b.volume);
  EXPECT_BITS_EQ(a.bond_cost, b.bond_cost);
  EXPECT_BITS_EQ(a.bond_yield, b.bond_yield);
  ASSERT_EQ(a.dies.size(), b.dies.size());
  for (std::size_t i = 0; i < a.dies.size(); ++i) {
    EXPECT_EQ(a.dies[i].name, b.dies[i].name);
    EXPECT_BITS_EQ(a.dies[i].cost, b.dies[i].cost);
    EXPECT_BITS_EQ(a.dies[i].yield, b.dies[i].yield);
    EXPECT_BITS_EQ(a.dies[i].kgd_test_cost, b.dies[i].kgd_test_cost);
    EXPECT_BITS_EQ(a.dies[i].kgd_escape, b.dies[i].kgd_escape);
    EXPECT_BITS_EQ(a.dies[i].nre, b.dies[i].nre);
  }
  EXPECT_EQ(a.semantics, b.semantics);
}

void expect_kit_bits(const ProcessKit& a, const ProcessKit& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.maturity, b.maturity);
  EXPECT_EQ(a.notes, b.notes);

  EXPECT_EQ(a.substrate.name, b.substrate.name);
  EXPECT_EQ(a.substrate.kind, b.substrate.kind);
  EXPECT_BITS_EQ(a.substrate.cost_per_cm2, b.substrate.cost_per_cm2);
  EXPECT_BITS_EQ(a.substrate.fab_yield, b.substrate.fab_yield);
  EXPECT_BITS_EQ(a.substrate.routing_overhead, b.substrate.routing_overhead);
  EXPECT_BITS_EQ(a.substrate.edge_clearance_mm, b.substrate.edge_clearance_mm);
  EXPECT_EQ(a.substrate.supports_integrated_passives,
            b.substrate.supports_integrated_passives);
  EXPECT_EQ(a.substrate.double_sided, b.substrate.double_sided);

  EXPECT_BITS_EQ(a.passives.resistor.sheet_ohm_sq, b.passives.resistor.sheet_ohm_sq);
  EXPECT_BITS_EQ(a.passives.resistor.line_width_um, b.passives.resistor.line_width_um);
  EXPECT_BITS_EQ(a.passives.resistor.meander_pitch_factor,
                 b.passives.resistor.meander_pitch_factor);
  EXPECT_BITS_EQ(a.passives.resistor.contact_pad_area_mm2,
                 b.passives.resistor.contact_pad_area_mm2);
  EXPECT_BITS_EQ(a.passives.resistor.tolerance, b.passives.resistor.tolerance);
  EXPECT_BITS_EQ(a.passives.resistor.trimmed_tolerance,
                 b.passives.resistor.trimmed_tolerance);

  for (const auto& [ca, cb] :
       {std::pair{&a.passives.precision_cap, &b.passives.precision_cap},
        std::pair{&a.passives.decap_cap, &b.passives.decap_cap}}) {
    EXPECT_EQ(ca->dielectric, cb->dielectric);
    EXPECT_BITS_EQ(ca->density_pf_mm2, cb->density_pf_mm2);
    EXPECT_BITS_EQ(ca->terminal_overhead_mm2, cb->terminal_overhead_mm2);
    expect_qmodel_bits(ca->quality, cb->quality);
  }

  EXPECT_BITS_EQ(a.passives.spiral.line_width_um, b.passives.spiral.line_width_um);
  EXPECT_BITS_EQ(a.passives.spiral.line_spacing_um, b.passives.spiral.line_spacing_um);
  EXPECT_BITS_EQ(a.passives.spiral.metal_sheet_ohm_sq,
                 b.passives.spiral.metal_sheet_ohm_sq);
  EXPECT_BITS_EQ(a.passives.spiral.fill_ratio, b.passives.spiral.fill_ratio);
  EXPECT_BITS_EQ(a.passives.spiral.guard_clearance_um,
                 b.passives.spiral.guard_clearance_um);
  EXPECT_BITS_EQ(a.passives.spiral.wheeler_k1, b.passives.spiral.wheeler_k1);
  EXPECT_BITS_EQ(a.passives.spiral.wheeler_k2, b.passives.spiral.wheeler_k2);
  EXPECT_BITS_EQ(a.passives.spiral.substrate_q_factor,
                 b.passives.spiral.substrate_q_factor);
  EXPECT_BITS_EQ(a.passives.spiral.max_q_peak, b.passives.spiral.max_q_peak);
  EXPECT_BITS_EQ(a.passives.spiral.q_peak_freq_hz, b.passives.spiral.q_peak_freq_hz);
  EXPECT_BITS_EQ(a.passives.spiral.q_slope, b.passives.spiral.q_slope);
  EXPECT_BITS_EQ(a.passives.integrated_filter_overhead,
                 b.passives.integrated_filter_overhead);
  EXPECT_BITS_EQ(a.passives.integrated_filter_spacing_mm2,
                 b.passives.integrated_filter_spacing_mm2);

  EXPECT_BITS_EQ(a.corner.fault_scale, b.corner.fault_scale);
  EXPECT_BITS_EQ(a.corner.cost_scale, b.corner.cost_scale);

  ASSERT_EQ(a.variants.size(), b.variants.size());
  for (std::size_t i = 0; i < a.variants.size(); ++i) {
    EXPECT_EQ(a.variants[i].name, b.variants[i].name);
    EXPECT_EQ(a.variants[i].policy, b.variants[i].policy);
    EXPECT_EQ(a.variants[i].die_attach, b.variants[i].die_attach);
    EXPECT_EQ(a.variants[i].parts_grade, b.variants[i].parts_grade);
    EXPECT_EQ(a.variants[i].uses_laminate, b.variants[i].uses_laminate);
    EXPECT_EQ(a.variants[i].smd_on_laminate, b.variants[i].smd_on_laminate);
    expect_production_bits(a.variants[i].production, b.variants[i].production);
  }
}

// kit -> JSON -> kit is bit-identical, and serializing the reparsed kit
// reproduces the exact same document (fixed point after one trip).
TEST(KitJson, RoundTripEveryBuiltinKitBitIdentical) {
  const KitRegistry registry = builtin_kit_registry();
  for (const ProcessKit& kit : registry.kits()) {
    SCOPED_TRACE(kit.name);
    const std::string json = kit_json(kit);
    const ProcessKit reparsed = parse_kit_json(json);
    expect_kit_bits(kit, reparsed);
    EXPECT_EQ(kit_json(reparsed), json);
  }
}

TEST(KitJson, RegistryRoundTrip) {
  const KitRegistry registry = builtin_kit_registry();
  const KitRegistry reparsed = parse_registry_json(registry_json(registry));
  ASSERT_EQ(reparsed.size(), registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    SCOPED_TRACE(registry.kits()[i].name);
    expect_kit_bits(registry.kits()[i], reparsed.kits()[i]);
  }
}

// Awkward doubles must survive: denormals, ulp-close values, huge/small
// magnitudes — %.17g + strtod is an exact binary64 round-trip.
TEST(KitJson, AwkwardDoublesRoundTripToTheUlp) {
  const KitRegistry registry = builtin_kit_registry();
  ProcessKit kit = registry.at(kLtccKit);
  kit.substrate.cost_per_cm2 = 0.1;  // classic non-representable decimal
  kit.substrate.fab_yield = std::nextafter(1.0, 0.0);  // 1 - ulp
  kit.variants[0].production.nre_total = 12345.678901234567;
  kit.variants[0].production.rf_chip_cost = 5e-324;  // min denormal
  kit.passives.spiral.q_peak_freq_hz = 1.7976931348623157e308;  // DBL_MAX
  const ProcessKit reparsed = parse_kit_json(kit_json(kit));
  expect_kit_bits(kit, reparsed);
}

template <typename Fn>
void expect_rejects(Fn fn, std::initializer_list<const char*> needles) {
  try {
    fn();
    FAIL() << "expected a PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    for (const char* needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "message '" << what << "' does not mention '" << needle << "'";
    }
  }
}

std::string builtin_json(const char* name) {
  return kit_json(builtin_kit_registry().at(name));
}

// Loader-level validation hardening: the parsed document goes through
// validate_kit, so out-of-range values are rejected with kit + field.
TEST(KitJson, LoaderRejectsOutOfRangeYield) {
  std::string json = builtin_json(kLtccKit);
  const std::string needle = "\"fab_yield\": 0.96999999999999997";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"fab_yield\": 1.25");
  expect_rejects([&] { parse_kit_json(json); }, {kLtccKit, "substrate.fab_yield"});
}

TEST(KitJson, LoaderRejectsNegativeCost) {
  std::string json = builtin_json(kSiInterposerKit);
  const std::string needle = "\"packaging_cost\": 5.5";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"packaging_cost\": -5.5");
  expect_rejects([&] { parse_kit_json(json); },
                 {kSiInterposerKit, "production.packaging_cost"});
}

TEST(KitJson, RegistryLoaderRejectsDuplicateNames) {
  const std::string one = builtin_json(kLtccKit);
  const std::string doc = "{\"kits\": [" + one + "," + one + "]}";
  expect_rejects([&] { parse_registry_json(doc); }, {"duplicate", kLtccKit});
}

TEST(KitJson, MalformedDocumentsAreRejected) {
  EXPECT_THROW(parse_kit_json(""), PreconditionError);
  EXPECT_THROW(parse_kit_json("{"), PreconditionError);
  EXPECT_THROW(parse_kit_json("[]"), PreconditionError);           // not an object
  EXPECT_THROW(parse_kit_json("{\"name\": }"), PreconditionError); // missing value
  EXPECT_THROW(parse_kit_json("{\"name\": \"x\"}"), PreconditionError);  // fields missing
  EXPECT_THROW(parse_kit_json(builtin_json(kLtccKit) + "junk"), PreconditionError);
}

// The multi-die fields are optional with neutral defaults: documents
// written before the chiplet extension (committed serve journals, the
// corpus) must still load, as the exact single-die production data.
TEST(KitJson, OldFormatProductionWithoutDieFieldsStillLoads) {
  std::string json = builtin_json(kLtccKit);
  // Strip the writer's always-emitted multi-die lines back to old format.
  for (const char* line :
       {"        \"bond_cost\": 0,\n", "        \"bond_yield\": 1,\n",
        "        \"dies\": [],\n"}) {
    for (auto pos = json.find(line); pos != std::string::npos; pos = json.find(line)) {
      json.erase(pos, std::strlen(line));
    }
  }
  ASSERT_EQ(json.find("\"bond_cost\""), std::string::npos);
  const ProcessKit reparsed = parse_kit_json(json);
  expect_kit_bits(builtin_kit_registry().at(kLtccKit), reparsed);
}

TEST(KitJson, MultiDieVariantRoundTripsBitIdentical) {
  // The builtin si-interposer kit carries a chiplet variant; push awkward
  // doubles through its die list too.
  ProcessKit kit = builtin_kit_registry().at(kSiInterposerKit);
  ASSERT_GE(kit.variants.size(), 2U);
  ASSERT_FALSE(kit.variants[1].production.dies.empty());
  kit.variants[1].production.dies[0].yield = std::nextafter(1.0, 0.0);
  kit.variants[1].production.dies[0].cost = 0.1;
  kit.variants[1].production.bond_yield = 0.99999999999999989;
  const std::string json = kit_json(kit);
  const ProcessKit reparsed = parse_kit_json(json);
  expect_kit_bits(kit, reparsed);
  EXPECT_EQ(kit_json(reparsed), json);
}

TEST(KitJson, LoaderRejectsBadDieFields) {
  const std::string json = builtin_json(kSiInterposerKit);

  // Out-of-range die yield: named kit + die index + field.
  std::string bad = json;
  const std::string yield_needle = "\"yield\": 0.92000000000000004";
  auto pos = bad.find(yield_needle);
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, yield_needle.size(), "\"yield\": 1.5");
  expect_rejects([&] { parse_kit_json(bad); },
                 {kSiInterposerKit, "production.dies[0].yield"});

  // Negative KGD screen cost.
  bad = json;
  const std::string kgd_needle = "\"kgd_test_cost\": 0.40000000000000002";
  pos = bad.find(kgd_needle);
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, kgd_needle.size(), "\"kgd_test_cost\": -0.4");
  expect_rejects([&] { parse_kit_json(bad); },
                 {kSiInterposerKit, "production.dies[0].kgd_test_cost"});

  // Escape probability above 1.
  bad = json;
  const std::string escape_needle = "\"kgd_escape\": 0.25";
  pos = bad.find(escape_needle);
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, escape_needle.size(), "\"kgd_escape\": 1.25");
  expect_rejects([&] { parse_kit_json(bad); },
                 {kSiInterposerKit, "production.dies[1].kgd_escape"});

  // Bond yield outside (0, 1].
  bad = json;
  const std::string bond_needle = "\"bond_yield\": 0.995";
  pos = bad.find(bond_needle);
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, bond_needle.size(), "\"bond_yield\": 0");
  expect_rejects([&] { parse_kit_json(bad); },
                 {kSiInterposerKit, "production.bond_yield"});
}

TEST(KitJson, LoaderRejectsDuplicateDieNames) {
  std::string json = builtin_json(kSiInterposerKit);
  const std::string needle = "\"name\": \"pmic\"";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"name\": \"sram-cache\"");
  expect_rejects([&] { parse_kit_json(json); },
                 {kSiInterposerKit, "production.dies", "duplicate die name",
                  "sram-cache"});
}

TEST(KitJson, NegativeQPeakIsATypoNotLossless) {
  // A sign typo must not silently load as an infinite-Q model.
  std::string json = builtin_json(kLtccKit);
  const std::string needle = "{\"q_peak\": 60, \"f_peak\": 1000000000, \"slope\": 0}";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(),
               "{\"q_peak\": -60, \"f_peak\": 1000000000, \"slope\": 0}");
  // The whole message: the loader's scope names the object, and the field
  // name is joined only for the message.
  expect_rejects([&] { parse_kit_json(json); },
                 {"kit 'kit.passives.precision_cap.quality': q_peak must be >= 0 "
                  "(0 = lossless)"});
}

TEST(KitJson, OverflowingNumbersAreRejected) {
  // An exponent typo must not load as infinity on a field validate_kit
  // does not range-check (inf would poison area realization and break the
  // serialize round-trip).
  std::string json = builtin_json(kLtccKit);
  const std::string needle = "\"wheeler_k1\": 2.3399999999999999";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"wheeler_k1\": 1e999");
  expect_rejects([&] { parse_kit_json(json); }, {"out of binary64 range"});
}

TEST(KitJson, DeeplyNestedDocumentIsRejectedCleanly) {
  // A corrupt/hostile file must get a PreconditionError, not a stack
  // overflow from unbounded recursion.
  expect_rejects([&] { parse_kit_json(std::string(100000, '[')); },
                 {"nested too deeply"});
}

TEST(KitJson, UnknownEnumTokensAndExtraFieldsAreRejected) {
  std::string json = builtin_json(kLtccKit);
  const std::string needle = "\"maturity\": \"production\"";
  auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  std::string bad = json;
  bad.replace(pos, needle.size(), "\"maturity\": \"vaporware\"");
  expect_rejects([&] { parse_kit_json(bad); }, {"vaporware"});

  // An unknown extra key is an error, not a silent default.
  bad = json;
  pos = bad.find("\"name\":");
  ASSERT_NE(pos, std::string::npos);
  bad.insert(pos, "\"fab_yeild\": 0.5, ");
  expect_rejects([&] { parse_kit_json(bad); }, {"extra field"});
}

}  // namespace
}  // namespace ipass::kits
