// Gap-closing tests: out-of-place 1D API, twiddle diagonal content,
// topology helpers, assertion machinery, the odd/even-log2 Stockham schedule.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/topology.h"
#include "fft/reference.h"
#include "fft1d/fft1d.h"
#include "spl/expr.h"
#include "test_util.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;

TEST(Misc, ApplyOutOfPlacePreservesInput) {
  const idx_t n = 64;
  auto x = random_cvec(n, 9500);
  const cvec saved = x;
  Fft1d plan(n, Direction::Forward);
  cvec out(x.size());
  plan.apply_oop(x.data(), out.data());
  EXPECT_EQ(0.0, max_err(saved, x));  // input untouched
  cvec want(x.size());
  reference_dft_1d(x.data(), want.data(), n, Direction::Forward);
  EXPECT_LT(max_err(want, out), fft_tol(64.0));
}

TEST(Misc, TwiddleDiagMatchesDefinition) {
  // D_n^{mn} entry (i, j) = w_{mn}^{i j}.
  const idx_t m = 3, n = 4;
  auto d = spl::twiddle_diag(m, n);
  auto dense_d = spl::dense(*d);
  for (idx_t i = 0; i < m; ++i) {
    for (idx_t j = 0; j < n; ++j) {
      const cplx want = root_of_unity(m * n, (i * j) % (m * n),
                                      Direction::Forward);
      EXPECT_NEAR(0.0,
                  std::abs(dense_d[static_cast<std::size_t>(i * n + j)]
                                  [static_cast<std::size_t>(i * n + j)] -
                           want),
                  1e-15);
    }
  }
}

TEST(Misc, TopologyHelpers) {
  auto t = machines::haswell_2667v3();
  EXPECT_EQ(8, t.threads_per_socket());
  EXPECT_EQ(16, t.total_threads());
  auto amd = machines::amd_fx8350();
  EXPECT_EQ(1, amd.smt_per_core);
  EXPECT_EQ(8, amd.threads_per_socket());
}

TEST(Misc, CheckMacroThrowsWithContext) {
  try {
    BWFFT_CHECK(1 == 2, "the message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(std::string::npos, what.find("the message"));
    EXPECT_NE(std::string::npos, what.find("misc_test.cpp"));
  }
}

TEST(Misc, StockhamHandlesOddAndEvenLog2) {
  // Radix-4 schedule with (even log2) and without (odd log2) the trailing
  // radix-2 level must both be exact.
  for (idx_t n : {64, 128, 512, 2048}) {  // log2 = 6,7,9,11
    Fft1d plan(n, Direction::Forward);
    auto x = random_cvec(n, 9600 + n);
    cvec want(x.size());
    reference_dft_1d(x.data(), want.data(), n, Direction::Forward);
    cvec got = x;
    plan.apply_batch(got.data(), 1);
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n))) << n;
  }
}

}  // namespace
}  // namespace bwfft
