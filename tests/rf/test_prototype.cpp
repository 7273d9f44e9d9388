#include "rf/prototype.hpp"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"
#include "rf/analysis.hpp"
#include "rf/transform.hpp"

namespace ipass::rf {
namespace {

TEST(Butterworth, TextbookGValues) {
  // Pozar table: n=3 -> 1.0, 2.0, 1.0.
  const auto g3 = butterworth_g_values(3);
  EXPECT_NEAR(g3[0], 1.0, 1e-12);
  EXPECT_NEAR(g3[1], 2.0, 1e-12);
  EXPECT_NEAR(g3[2], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(g3[3], 1.0);
  // n=5 -> 0.618, 1.618, 2.0, 1.618, 0.618.
  const auto g5 = butterworth_g_values(5);
  EXPECT_NEAR(g5[0], 0.6180, 1e-4);
  EXPECT_NEAR(g5[1], 1.6180, 1e-4);
  EXPECT_NEAR(g5[2], 2.0000, 1e-4);
  EXPECT_NEAR(g5[3], 1.6180, 1e-4);
  EXPECT_NEAR(g5[4], 0.6180, 1e-4);
}

TEST(Chebyshev, TextbookGValues) {
  // Pozar table, 0.5 dB ripple: n=2 -> 1.4029, 0.7071, load 1.9841.
  const auto g2 = chebyshev_g_values(2, 0.5);
  EXPECT_NEAR(g2[0], 1.4029, 2e-4);
  EXPECT_NEAR(g2[1], 0.7071, 2e-4);
  EXPECT_NEAR(g2[2], 1.9841, 2e-4);
  // n=3 -> 1.5963, 1.0967, 1.5963, load 1.
  const auto g3 = chebyshev_g_values(3, 0.5);
  EXPECT_NEAR(g3[0], 1.5963, 2e-4);
  EXPECT_NEAR(g3[1], 1.0967, 2e-4);
  EXPECT_NEAR(g3[2], 1.5963, 2e-4);
  EXPECT_NEAR(g3[3], 1.0, 1e-9);
  // 3 dB ripple n=3 -> 3.3487, 0.7117, 3.3487 (table rounding ~5e-4).
  const auto g3b = chebyshev_g_values(3, 3.0);
  EXPECT_NEAR(g3b[0], 3.3487, 5e-4);
  EXPECT_NEAR(g3b[1], 0.7117, 5e-4);
  EXPECT_NEAR(g3b[2], 3.3487, 5e-4);
}

TEST(Chebyshev, OddOrdersAreSymmetric) {
  for (const int n : {3, 5, 7, 9}) {
    const auto g = chebyshev_g_values(n, 0.2);
    for (int k = 0; k < n; ++k) {
      EXPECT_NEAR(g[static_cast<std::size_t>(k)], g[static_cast<std::size_t>(n - 1 - k)],
                  1e-9)
          << "n=" << n << " k=" << k;
    }
    EXPECT_NEAR(g[static_cast<std::size_t>(n)], 1.0, 1e-9);
  }
}

TEST(Prototype, PiFormStartsWithShuntC) {
  const LadderPrototype p = chebyshev(3, 0.5);
  ASSERT_EQ(p.branches.size(), 3u);
  EXPECT_EQ(p.branches[0].topo, LadderBranch::Topology::ShuntC);
  EXPECT_EQ(p.branches[1].topo, LadderBranch::Topology::SeriesL);
  EXPECT_EQ(p.branches[2].topo, LadderBranch::Topology::ShuntC);
  EXPECT_GT(p.g_sum(), 4.0);
  EXPECT_NE(p.to_string().find("Chebyshev"), std::string::npos);
}

TEST(Prototype, Preconditions) {
  EXPECT_THROW(butterworth(0), ipass::PreconditionError);
  EXPECT_THROW(chebyshev(3, 0.0), ipass::PreconditionError);
  EXPECT_THROW(chebyshev(0, 0.5), ipass::PreconditionError);
}

// Property sweep: a denormalized lossless Chebyshev lowpass exhibits its
// design ripple in the passband and is monotone beyond cutoff.
// CTest names each case after the raw bytes of its parameter, so the struct
// has no padding: padding bytes are uninitialised and would give the cases a
// different name on every build.
struct ChebyCase {
  std::int64_t order;
  double ripple_db;
};

class ChebyshevResponseTest : public ::testing::TestWithParam<ChebyCase> {};

TEST_P(ChebyshevResponseTest, EqualRippleAndCutoff) {
  const int n = static_cast<int>(GetParam().order);
  const double ripple = GetParam().ripple_db;
  const double fc = 100e6;
  const Circuit ckt = realize_lowpass(chebyshev(n, ripple), fc, 50.0);

  // Max passband IL equals the ripple (within grid resolution).
  double max_il = 0.0;
  for (const double f : linspace(1e6, fc, 400)) {
    max_il = std::max(max_il, insertion_loss_at(ckt, f));
  }
  EXPECT_NEAR(max_il, ripple, 0.02) << "n=" << n << " ripple=" << ripple;

  // At exactly the cutoff the attenuation equals the ripple for Chebyshev.
  EXPECT_NEAR(insertion_loss_at(ckt, fc), ripple, 0.02);

  // Stopband: attenuation grows with frequency.
  double prev = insertion_loss_at(ckt, 1.2 * fc);
  for (const double f : {1.5 * fc, 2.0 * fc, 3.0 * fc}) {
    const double il = insertion_loss_at(ckt, f);
    EXPECT_GT(il, prev);
    prev = il;
  }
  // Roll-off rate ~ 20 n dB/decade: compare 2fc and 4fc (one octave ~ 6n dB).
  const double slope = insertion_loss_at(ckt, 4.0 * fc) - insertion_loss_at(ckt, 2.0 * fc);
  EXPECT_NEAR(slope, 6.02 * n, 0.25 * 6.02 * n);
}

INSTANTIATE_TEST_SUITE_P(Cases, ChebyshevResponseTest,
                         ::testing::Values(ChebyCase{2, 0.5}, ChebyCase{3, 0.1},
                                           ChebyCase{3, 0.5}, ChebyCase{4, 0.2},
                                           ChebyCase{5, 0.5}, ChebyCase{5, 1.0},
                                           ChebyCase{7, 0.1}));

class ButterworthResponseTest : public ::testing::TestWithParam<int> {};

TEST_P(ButterworthResponseTest, MaximallyFlatAndHalfPowerCutoff) {
  const int n = GetParam();
  const double fc = 1e9;
  const Circuit ckt = realize_lowpass(butterworth(n), fc, 50.0);
  // 3.01 dB at cutoff.
  EXPECT_NEAR(insertion_loss_at(ckt, fc), 3.0103, 0.02) << "n=" << n;
  // |S21|^2 = 1/(1 + (f/fc)^(2n)) -- checked below AND above cutoff.
  const double il_low = insertion_loss_at(ckt, fc / 10.0);
  EXPECT_NEAR(il_low, 10.0 * std::log10(1.0 + std::pow(0.1, 2 * n)), 0.01);
  const double il2 = insertion_loss_at(ckt, 2.0 * fc);
  EXPECT_NEAR(il2, 10.0 * std::log10(1.0 + std::pow(2.0, 2 * n)), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Orders, ButterworthResponseTest, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace ipass::rf
