#include "core/realization.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "gps/bom.hpp"
#include "gps/table2.hpp"
#include "kits/registry.hpp"
#include "rf/cauer.hpp"
#include "rf/prototype.hpp"
#include "rf/transform.hpp"
#include "tech/smd.hpp"

namespace ipass::core {
namespace {

struct Fixture {
  FunctionalBom bom = gps::gps_front_end_bom();
  TechKits kits;
  gps::ConfidentialCosts cc = gps::calibrated_confidential_costs();
};

TEST(FilterStyle, PolicyMapping) {
  FilterSpec plain;
  FilterSpec hybrid;
  hybrid.hybrid_preferred = true;
  EXPECT_EQ(filter_style_for(plain, PassivePolicy::AllSmd), FilterStyle::SmdBlock);
  EXPECT_EQ(filter_style_for(hybrid, PassivePolicy::AllSmd), FilterStyle::SmdBlock);
  EXPECT_EQ(filter_style_for(plain, PassivePolicy::AllIntegrated), FilterStyle::Integrated);
  EXPECT_EQ(filter_style_for(hybrid, PassivePolicy::AllIntegrated), FilterStyle::Integrated);
  EXPECT_EQ(filter_style_for(plain, PassivePolicy::Optimized), FilterStyle::Integrated);
  EXPECT_EQ(filter_style_for(hybrid, PassivePolicy::Optimized), FilterStyle::Hybrid);
}

TEST(Realize, PublishedSmdCountsPerBuildUp) {
  Fixture fx;
  // Build-ups 1 and 2: "# SMD's 112".
  const RealizedBom b1 = realize_bom(fx.bom, gps::buildup_pcb_smd(fx.cc), fx.kits);
  EXPECT_EQ(b1.smd_placement_count(), 112);
  const RealizedBom b2 = realize_bom(fx.bom, gps::buildup_mcm_wb_smd(fx.cc), fx.kits);
  EXPECT_EQ(b2.smd_placement_count(), 112);
  // Build-up 3: no SMDs at all.
  const RealizedBom b3 = realize_bom(fx.bom, gps::buildup_mcm_fc_ip(fx.cc), fx.kits);
  EXPECT_EQ(b3.smd_placement_count(), 0);
  // Build-up 4: "# SMD's 12".
  const RealizedBom b4 = realize_bom(fx.bom, gps::buildup_mcm_fc_ip_smd(fx.cc), fx.kits);
  EXPECT_EQ(b4.smd_placement_count(), 12);
}

TEST(Realize, PublishedSmdPartsCost) {
  Fixture fx;
  // Table 2: 112 parts cost 11.0 (PCB line) / 8.6 (MCM line); 12 cost 2.6.
  const RealizedBom b1 = realize_bom(fx.bom, gps::buildup_pcb_smd(fx.cc), fx.kits);
  EXPECT_NEAR(b1.smd_parts_cost(), 11.0, 0.3);
  const RealizedBom b2 = realize_bom(fx.bom, gps::buildup_mcm_wb_smd(fx.cc), fx.kits);
  EXPECT_NEAR(b2.smd_parts_cost(), 8.6, 0.3);
  const RealizedBom b4 = realize_bom(fx.bom, gps::buildup_mcm_fc_ip_smd(fx.cc), fx.kits);
  EXPECT_NEAR(b4.smd_parts_cost(), 2.6, 0.3);
}

TEST(Realize, OptimizedPolicyMinimizesArea) {
  Fixture fx;
  const RealizedBom b4 = realize_bom(fx.bom, gps::buildup_mcm_fc_ip_smd(fx.cc), fx.kits);
  // Decaps must be SMD (4.5 mm^2 beats ~35 mm^2 integrated).
  for (const ComponentInstance& c : b4.components) {
    if (c.name.find("decoupling") != std::string::npos) {
      EXPECT_EQ(c.mount, Mount::Smd) << c.name;
      EXPECT_DOUBLE_EQ(c.area_mm2, 4.5);
    }
    // Bias resistors must be integrated (0.23 mm^2 beats 3.75).
    if (c.name.find("bias") != std::string::npos) {
      EXPECT_EQ(c.mount, Mount::Integrated) << c.name;
      EXPECT_LT(c.area_mm2, 0.5);
    }
  }
}

TEST(Realize, IntegratedFilterNearTable1Anchor) {
  Fixture fx;
  // Table 1: integrated 3-stage filter = 12 mm^2.
  const double area =
      integrated_filter_area_mm2(fx.bom.filters[0], FilterStyle::Integrated, fx.kits);
  EXPECT_NEAR(area, 12.0, 2.5);
  // And it beats the 27.5 mm^2 SMD block, which is the paper's point.
  EXPECT_LT(area, 27.5);
}

TEST(Realize, HybridKeepsInductorsAsSmd) {
  Fixture fx;
  const FilterSpec& if_spec = fx.bom.filters[1];
  ASSERT_TRUE(if_spec.hybrid_preferred);
  const rf::Circuit hybrid = synthesize_filter(if_spec, FilterStyle::Hybrid, fx.kits);
  // Hybrid and integrated share topology but differ in inductor Q.
  const rf::Circuit integrated =
      synthesize_filter(if_spec, FilterStyle::Integrated, fx.kits);
  ASSERT_EQ(hybrid.elements().size(), integrated.elements().size());
  for (std::size_t i = 0; i < hybrid.elements().size(); ++i) {
    if (hybrid.elements()[i].kind != rf::ElementKind::Inductor) continue;
    // SMD multilayer inductor Q at IF beats the integrated spiral.
    EXPECT_GT(hybrid.elements()[i].q.q_at(175e6),
              integrated.elements()[i].q.q_at(175e6));
  }
}

TEST(Realize, DiesFollowAttachStyle) {
  Fixture fx;
  const RealizedBom pcb = realize_bom(fx.bom, gps::buildup_pcb_smd(fx.cc), fx.kits);
  EXPECT_NEAR(pcb.area_mm2(Mount::Die), 225.0 + 1165.0, 1e-9);
  const RealizedBom fc = realize_bom(fx.bom, gps::buildup_mcm_fc_ip(fx.cc), fx.kits);
  EXPECT_NEAR(fc.area_mm2(Mount::Die), 13.0 + 59.0, 1e-9);
  const RealizedBom wb = realize_bom(fx.bom, gps::buildup_mcm_wb_smd(fx.cc), fx.kits);
  EXPECT_NEAR(wb.area_mm2(Mount::Die), 28.0 + 88.0, 1.5);
}

TEST(Realize, IntegratedRequiresCapableSubstrate) {
  Fixture fx;
  BuildUp bad = gps::buildup_mcm_fc_ip(fx.cc);
  bad.substrate = tech::mcm_d_si();  // no IP layers
  EXPECT_THROW(realize_bom(fx.bom, bad, fx.kits), PreconditionError);
}

TEST(Realize, SynthRejectsSmdBlockStyle) {
  Fixture fx;
  EXPECT_THROW(synthesize_filter(fx.bom.filters[0], FilterStyle::SmdBlock, fx.kits),
               PreconditionError);
  EXPECT_THROW(
      integrated_filter_area_mm2(fx.bom.filters[0], FilterStyle::SmdBlock, fx.kits),
      PreconditionError);
}

TEST(Realize, BreakdownCoversAllMounts) {
  Fixture fx;
  const RealizedBom b = realize_bom(fx.bom, gps::buildup_mcm_fc_ip_smd(fx.cc), fx.kits);
  const double total = b.total_component_area_mm2();
  EXPECT_NEAR(total,
              b.area_mm2(Mount::Die) + b.area_mm2(Mount::Smd) + b.area_mm2(Mount::Integrated),
              1e-9);
  EXPECT_NEAR(b.breakdown().total_mm2(), total, 1e-9);
}

// ------------------------------------------------------ the ladder memo

// synthesize_filter without the memo: the spec's ladder synthesized anew
// and the kit's Q models assigned, as the memoized path must reproduce.
rf::Circuit fresh_synthesis(const FilterSpec& spec, FilterStyle style, const TechKits& kits) {
  rf::LadderPrototype proto;
  switch (spec.family) {
    case rf::FilterFamily::Butterworth: proto = rf::butterworth(spec.order); break;
    case rf::FilterFamily::Chebyshev: proto = rf::chebyshev(spec.order, spec.ripple_db); break;
    case rf::FilterFamily::Elliptic:
      proto = rf::cauer_lowpass(spec.order, spec.ripple_db, spec.selectivity);
      break;
  }
  rf::Circuit ckt = rf::realize_bandpass(proto, spec.f0_hz, spec.bw_hz, spec.z0);
  for (std::size_t i = 0; i < ckt.elements().size(); ++i) {
    const rf::Element& e = ckt.elements()[i];
    if (e.kind == rf::ElementKind::Capacitor) {
      ckt.set_quality(i, kits.precision_cap.quality);
    } else if (e.kind == rf::ElementKind::Inductor) {
      ckt.set_quality(i, style == FilterStyle::Hybrid
                             ? tech::smd_quality(tech::SmdKind::Inductor)
                             : tech::design_spiral(kits.spiral, e.value).q_model);
    }
  }
  return ckt;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Empty when `a` and `b` agree bit for bit (nodes, ports, every element's
// kind, nodes, value, Q model and label), else the first difference.
std::string difference(const rf::Circuit& a, const rf::Circuit& b) {
  if (a.node_count() != b.node_count()) return "node count";
  if (a.port1().node != b.port1().node || bits(a.port1().z0) != bits(b.port1().z0) ||
      a.port2().node != b.port2().node || bits(a.port2().z0) != bits(b.port2().z0)) {
    return "ports";
  }
  if (a.elements().size() != b.elements().size()) return "element count";
  for (std::size_t i = 0; i < a.elements().size(); ++i) {
    const rf::Element& x = a.elements()[i];
    const rf::Element& y = b.elements()[i];
    if (x.kind != y.kind || x.node1 != y.node1 || x.node2 != y.node2 ||
        bits(x.value) != bits(y.value) || bits(x.q.q_peak()) != bits(y.q.q_peak()) ||
        bits(x.q.f_peak()) != bits(y.q.f_peak()) || bits(x.q.slope()) != bits(y.q.slope()) ||
        x.label != y.label) {
      return "element " + std::to_string(i);
    }
  }
  return {};
}

// `n` distinct specs no other test synthesizes: the GPS filters moved by
// `f0_offset_hz`, each with one of the five numbers synthesis reads
// nudged, so some pairs differ in that one field only.
std::vector<FilterSpec> unseen_specs(std::size_t n, double f0_offset_hz) {
  const FunctionalBom bom = gps::gps_front_end_bom();
  const std::size_t m = bom.filters.size();
  std::vector<FilterSpec> out;
  for (std::size_t i = 0; i < n; ++i) {
    FilterSpec f = bom.filters[i % m];
    f.f0_hz += f0_offset_hz;
    const double nudge = 1.0 + 1e-4 * static_cast<double>(i / (5 * m) + 1);
    double* fields[] = {&f.f0_hz, &f.bw_hz, &f.z0, &f.ripple_db, &f.selectivity};
    *fields[(i / m) % 5] *= nudge;
    out.push_back(f);
  }
  return out;
}

TEST(LadderMemo, MatchesAFreshSynthesisBitForBit) {
  std::vector<TechKits> all_kits = {TechKits{}};
  const kits::KitRegistry registry = kits::builtin_kit_registry();
  for (const kits::ProcessKit& kit : registry.kits()) {
    all_kits.push_back(kits::apply_passives(kit));
  }
  const FunctionalBom bom = gps::gps_front_end_bom();
  for (const TechKits& kits : all_kits) {
    for (const FilterSpec& f : bom.filters) {
      for (const FilterStyle style : {FilterStyle::Integrated, FilterStyle::Hybrid}) {
        const rf::Circuit want = fresh_synthesis(f, style, kits);
        // The first call may synthesize, the second reads the memo.
        for (int call = 0; call < 2; ++call) {
          EXPECT_EQ(difference(synthesize_filter(f, style, kits), want), "")
              << f.name << ", " << filter_style_name(style) << ", call " << call;
        }
      }
    }
  }
}

TEST(LadderMemo, FailuresAreNotKept) {
  FilterSpec bad = gps::gps_front_end_bom().filters[0];
  bad.family = rf::FilterFamily::Chebyshev;
  bad.ripple_db = -1.0;
  std::string first;
  try {
    synthesize_filter(bad, FilterStyle::Integrated, TechKits{});
    FAIL() << "a negative ripple synthesized";
  } catch (const PreconditionError& e) {
    first = e.what();
  }
  EXPECT_NE(first.find("ripple"), std::string::npos) << first;
  // Had the failure been kept, this would be a hit or a different error.
  try {
    integrated_filter_area_mm2(bad, FilterStyle::Integrated, TechKits{});
    FAIL() << "a negative ripple synthesized on the second call";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), first);
  }
}

TEST(LadderMemo, MoreSpecsThanItHoldsStayBitIdentical) {
  const std::vector<FilterSpec> specs = unseen_specs(3 * kLadderMemoCapacity, 7e6);
  const TechKits kits;
  // Two passes: the second finds every early spec evicted.
  for (int pass = 0; pass < 2; ++pass) {
    for (const FilterSpec& f : specs) {
      EXPECT_EQ(difference(synthesize_filter(f, FilterStyle::Integrated, kits),
                           fresh_synthesis(f, FilterStyle::Integrated, kits)),
                "")
          << f.name << " at " << f.f0_hz << " Hz, pass " << pass;
    }
  }
}

TEST(LadderMemo, ConcurrentCallersGetIdenticalLadders) {
  // Every thread asks for the same unseen specs at once, so misses race.
  const std::vector<FilterSpec> specs = unseen_specs(kLadderMemoCapacity / 2, 3e6);
  const TechKits kits;
  constexpr int kThreads = 8;
  std::vector<std::vector<rf::Circuit>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const FilterSpec& f : specs) {
        got[t].push_back(synthesize_filter(f, FilterStyle::Integrated, kits));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const rf::Circuit want = fresh_synthesis(specs[i], FilterStyle::Integrated, kits);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(difference(got[t][i], want), "") << "thread " << t << ", spec " << i;
    }
  }
}

}  // namespace
}  // namespace ipass::core
