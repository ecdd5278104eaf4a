// Tests for the kernel layer: twiddle tables, the Stockham radix
// schedule, the batched codelets at lanes = 1 against the dense SPL DFT
// matrix, and the codelets' shared trig tables.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "fft1d/fft1d.h"
#include "kernels/batch.h"
#include "kernels/codelets.h"
#include "kernels/isa.h"
#include "kernels/twiddle.h"
#include "spl/expr.h"
#include "test_util.h"

namespace bwfft {
namespace {

using test::max_err;

constexpr double kPi = std::numbers::pi_v<double>;

TEST(Twiddle, RootsOfUnity) {
  // w_4^1 forward = -i; inverse = +i.
  auto f = root_of_unity(4, 1, Direction::Forward);
  EXPECT_NEAR(0.0, f.real(), 1e-15);
  EXPECT_NEAR(-1.0, f.imag(), 1e-15);
  auto i = root_of_unity(4, 1, Direction::Inverse);
  EXPECT_NEAR(1.0, i.imag(), 1e-15);
  // Period: w_n^{p} == w_n^{p mod n}.
  EXPECT_NEAR(0.0,
              std::abs(root_of_unity(8, 11, Direction::Forward) -
                       root_of_unity(8, 3, Direction::Forward)),
              1e-15);
}

TEST(Twiddle, TableMatchesScalar) {
  auto t = root_table(16, 16, Direction::Forward);
  for (idx_t p = 0; p < 16; ++p) {
    EXPECT_EQ(t[static_cast<std::size_t>(p)], root_of_unity(16, p, Direction::Forward));
  }
}

TEST(Twiddle, StockhamLevels) {
  // Powers of two: radix-16 levels, then one 8/4/2 level.
  EXPECT_EQ((std::vector<idx_t>{16}), stockham_radices(16));
  EXPECT_EQ((std::vector<idx_t>{16, 2}), stockham_radices(32));
  EXPECT_EQ((std::vector<idx_t>{16, 16, 2}), stockham_radices(512));
  EXPECT_EQ((std::vector<idx_t>{16, 16, 16}), stockham_radices(4096));
  // n <= 16 is one level of radix n, larger smooth n greedy.
  EXPECT_EQ((std::vector<idx_t>{12}), stockham_radices(12));
  EXPECT_EQ((std::vector<idx_t>{16, 16, 3}), stockham_radices(768));
  EXPECT_EQ((std::vector<idx_t>{8, 5, 3, 3}), stockham_radices(360));
  EXPECT_TRUE(stockham_radices(1).empty());
  EXPECT_TRUE(stockham_radices(17).empty());
}

TEST(Twiddle, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(0, log2_floor(1));
  EXPECT_EQ(10, log2_floor(1024));
}

/// One n-point DFT through the dispatched batched codelet at lanes = 1,
/// input rows at stride is, output rows at stride os (holes keep -9-9i).
cvec batched_dft(const cvec& x, idx_t n, idx_t is, idx_t os, Direction dir) {
  cvec got(static_cast<std::size_t>((n - 1) * os + 1), cplx(-9, -9));
  kernels::batch_lookup(n)(x.data(), is, got.data(), os, 1, nullptr, dir);
  return got;
}

class CodeletSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(CodeletSizes, MatchesDenseDftBothDirections) {
  const idx_t n = GetParam();
  for (Direction dir : {Direction::Forward, Direction::Inverse}) {
    auto x = random_cvec(n, 600 + n);
    auto want = (*spl::dft(n, dir))(x);
    EXPECT_LT(max_err(want, batched_dft(x, n, 1, 1, dir)), 1e-13) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(All, CodeletSizes,
                         ::testing::Values<idx_t>(2, 3, 4, 5, 6, 7, 8, 16));

TEST(Codelets, StridedInputAndOutput) {
  const idx_t n = 8, is = 3, os = 2;
  auto x = random_cvec(n * is, 700);
  const cvec got = batched_dft(x, n, is, os, Direction::Forward);
  cvec gathered(static_cast<std::size_t>(n));
  for (idx_t j = 0; j < n; ++j) gathered[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j * is)];
  auto want = (*spl::dft(n))(gathered);
  for (idx_t j = 0; j < n; ++j) {
    EXPECT_NEAR(0.0,
                std::abs(want[static_cast<std::size_t>(j)] -
                         got[static_cast<std::size_t>(j * os)]),
                1e-13);
  }
  // Holes between output strides must be untouched.
  EXPECT_EQ(cplx(-9, -9), got[1]);
}

TEST(Codelets, LookupCoversEverySupportedSize) {
  // Every size in [2, kMaxCodelet] has a codelet; 1 (the identity) and
  // sizes above the table have none.
  for (idx_t n = 2; n <= codelets::kMaxCodelet; ++n) {
    EXPECT_NE(nullptr, kernels::batch_lookup(n)) << "n=" << n;
  }
  EXPECT_EQ(nullptr, kernels::batch_lookup(1));
  EXPECT_EQ(nullptr, kernels::batch_lookup(32));
}

TEST(Codelets, FallbackSizesMatchDenseDftBothDirections) {
  // 9..15 run the table-driven direct DFT body.
  for (idx_t n = 9; n <= 15; ++n) {
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      auto x = random_cvec(n, 900 + n);
      auto want = (*spl::dft(n, dir))(x);
      EXPECT_LT(max_err(want, batched_dft(x, n, 1, 1, dir)), 1e-12)
          << "n=" << n;
    }
  }
}

TEST(Codelets, TrigTablesAreBitExactWithPerCallExpressions) {
  // The radix-5/7/16 codelet bodies read their cos/sin constants from
  // dft_trig tables. The table builder must evaluate the *same* libm
  // expression shapes the codelets once computed per call, or results
  // drift by an ULP between builds. Recompute each angle that way and
  // demand bitwise equality.
  for (idx_t n : {idx_t{5}, idx_t{7}, idx_t{16}}) {
    const auto& t = codelets::dft_trig(n);
    for (idx_t j = 0; j < n; ++j) {
      const double ang = 2.0 * kPi * static_cast<double>(j) /
                         static_cast<double>(n);
      EXPECT_EQ(std::cos(ang), t.c[static_cast<std::size_t>(j)])
          << "cos n=" << n << " j=" << j;
      EXPECT_EQ(std::sin(ang), t.s[static_cast<std::size_t>(j)])
          << "sin n=" << n << " j=" << j;
    }
  }
  // Radix 16 derives its inverse twiddles from the same table via
  // cos(-x) == cos(x), sin(-x) == -sin(x); confirm libm honors that
  // symmetry bitwise for the angles in play.
  for (idx_t j = 0; j < 16; ++j) {
    const double ang = 2.0 * kPi * static_cast<double>(j) / 16.0;
    EXPECT_EQ(std::cos(-ang), std::cos(ang)) << "j=" << j;
    EXPECT_EQ(std::sin(-ang), -std::sin(ang)) << "j=" << j;
  }
}

TEST(VecOps, ForceScalarToggle) {
  EXPECT_FALSE(kernels::force_scalar());
  kernels::set_force_scalar(true);
  EXPECT_TRUE(kernels::force_scalar());
  EXPECT_EQ(kernels::Isa::Scalar, kernels::active_isa());
  kernels::set_force_scalar(false);
  EXPECT_FALSE(kernels::force_scalar());
}

}  // namespace
}  // namespace bwfft
