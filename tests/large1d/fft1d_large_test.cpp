// Tests for the 1D double-buffer plans — the four-step Columns and Rows
// stages (and the Flat fallback) DoubleBufferEngine runs for out-of-LLC 1D
// transforms (docs/INTERNALS.md §15). Large sizes are checked against the
// flat Stockham pass (itself dense-oracle-verified in fft1d_test); tiny
// sizes are cross-checked against spl::plan_term, the specification of
// the plan the engine runs.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "common/error.h"
#include "common/rng.h"
#include "fft/double_buffer.h"
#include "fft/reference.h"
#include "fft1d/fft1d.h"
#include "pipeline/stage_plan.h"
#include "spl/algorithms.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;

/// Oracle for sizes where the dense O(n^2) reference is unusable: one
/// flat Stockham pass over the whole array.
cvec stockham_oracle(const cvec& x, Direction dir = Direction::Forward) {
  cvec want = x;
  Fft1d flat(static_cast<idx_t>(x.size()), dir);
  flat.apply_batch(want.data(), 1);
  return want;
}

/// Bins `bins` of the DFT of x from the long-double direct sum of
/// fft/reference.h: an oracle independent of the codelets the engines and
/// the Stockham pass share.
std::vector<std::complex<long double>> long_double_bins(
    const cvec& x, const std::vector<idx_t>& bins) {
  return direct_bins(x.data(), {static_cast<idx_t>(x.size())}, bins);
}

FftOptions large_opts(int threads) {
  FftOptions o;
  o.threads = threads;
  return o;
}

/// Forward transform of 2^lg points through the facade's 1D plan on
/// `threads` threads, against the flat Stockham oracle.
void expect_large_forward(int lg, int threads) {
  const idx_t n = idx_t{1} << lg;
  auto x = random_cvec(n, 9500 + lg);
  const cvec want = stockham_oracle(x);
  // The facade's 1D double-buffer plan is the engine itself.
  auto engine = make_engine({n}, Direction::Forward, large_opts(threads));
  auto* plan = dynamic_cast<DoubleBufferEngine*>(engine.get());
  ASSERT_NE(nullptr, plan);
  const StagePlan& sp = plan->plan();
  EXPECT_GT(sp.n1, 1) << "expected a real split at n=" << n;
  EXPECT_EQ(n, sp.n1 * sp.n2);
  ASSERT_EQ(2u, sp.stages.size());
  EXPECT_EQ(StageKind::Columns, sp.stages[0].kind);
  EXPECT_EQ(StageKind::Rows, sp.stages[1].kind);
  // The input doubles as the Columns pass's in-place buffer.
  cvec got(x.size());
  plan->execute(x.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
      << "n=2^" << lg << " n1=" << sp.n1 << " threads=" << threads;
}

class Fft1dLargeSizes : public ::testing::TestWithParam<int> {};

TEST_P(Fft1dLargeSizes, ForwardMatchesStockham) {
  expect_large_forward(GetParam(), 1);
}

// 2^18 (LLC-resident) through 2^24 (the out-of-LLC regime the engine
// exists for). 2^24 is 268 MiB per array — still fine on CI runners.
INSTANTIATE_TEST_SUITE_P(Sweep, Fft1dLargeSizes,
                         ::testing::Values(18, 20, 22, 24));

// The same out-of-LLC sizes on a 4-thread team: the Rows stage then
// splits each block's row groups across both compute and both data
// ranks, the tiling a single thread never exercises.
class Fft1dLargeSizesFourThreads : public ::testing::TestWithParam<int> {};

TEST_P(Fft1dLargeSizesFourThreads, ForwardMatchesStockham) {
  expect_large_forward(GetParam(), 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fft1dLargeSizesFourThreads,
                         ::testing::Values(22, 24));

TEST(Fft1dLarge, InverseRoundTripNormalized) {
  const idx_t n = idx_t{1} << 20;
  auto x = random_cvec(n, 9510);
  FftOptions io = large_opts(1);
  io.normalize_inverse = true;
  DoubleBufferEngine fwd({n}, Direction::Forward, large_opts(1));
  DoubleBufferEngine inv({n}, Direction::Inverse, io);
  cvec a = x, b(x.size()), c(x.size());
  fwd.execute(a.data(), b.data());
  inv.execute(b.data(), c.data());
  EXPECT_LT(max_err(x, c), fft_tol(static_cast<double>(n)));
}

TEST(Fft1dLarge, NonSquareRequestedFactorMatches) {
  // A deliberately skewed split (n1 = 64, n2 = 4096): the tuner's factor
  // axis must be free to pick shapes far from sqrt(n).
  const idx_t n = idx_t{1} << 18;
  FftOptions o = large_opts(1);
  o.factor_n1 = 64;
  DoubleBufferEngine plan({n}, Direction::Forward, o);
  EXPECT_EQ(64, plan.plan().n1);
  EXPECT_EQ(n / 64, plan.plan().n2);
  auto x = random_cvec(n, 9520);
  const cvec want = stockham_oracle(x);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)));
}

TEST(Fft1dLarge, OddRadixFactorizationMatches) {
  // n = 3 * 2^16: neither factor axis is forced to a power of two — the
  // default split and a requested odd n1 both have to work.
  const idx_t n = 3 * (idx_t{1} << 16);
  auto x = random_cvec(n, 9530);
  const cvec want = stockham_oracle(x);
  for (idx_t req : {idx_t{0}, idx_t{3 * 64}}) {
    FftOptions o = large_opts(1);
    o.factor_n1 = req;
    DoubleBufferEngine plan({n}, Direction::Forward, o);
    EXPECT_EQ(n, plan.plan().n1 * plan.plan().n2);
    if (req > 0) {
      EXPECT_EQ(req, plan.plan().n1);
    }
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
        << "requested n1=" << req;
  }
}

TEST(Fft1dLarge, MultiThreadedPipelineMatches) {
  // The TSan target: both tiled passes pipeline load/compute/store
  // across a pinned team. Any missing hand-off fence shows up here.
  const idx_t n = idx_t{1} << 20;
  auto x = random_cvec(n, 9540);
  const cvec want = stockham_oracle(x);
  for (int threads : {2, 4}) {
    DoubleBufferEngine plan({n}, Direction::Forward, large_opts(threads));
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
        << "threads=" << threads;
  }
}

TEST(Fft1dLarge, MultiThreadedPipelineMatchesUnevenSplits) {
  // p_c = 1 and p_c = 3 on four threads: one role has three ranks, so
  // ThreadTeam::chunk hands them uneven shares of a block's row groups.
  const idx_t n = idx_t{1} << 20;
  auto x = random_cvec(n, 9540);
  const cvec want = stockham_oracle(x);
  for (int pc : {1, 3}) {
    FftOptions o = large_opts(4);
    o.compute_threads = pc;
    DoubleBufferEngine plan({n}, Direction::Forward, o);
    const PlannedStage& rows = plan.plan().stages[1];
    EXPECT_GE(rows.rows_per_block, 3) << "pc=" << pc;
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
        << "pc=" << pc << " R=" << rows.group
        << " groups/block=" << rows.rows_per_block;
  }
}

TEST(Fft1dLarge, MixedRadixRowsMatchOnFourThreads) {
  // n = 3 * 2^16 on four threads. n1 = 256 leaves n2 = 768 = 3 * 2^8,
  // so the Rows stage's lanes-R compute runs the smooth radices 16, 16, 3;
  // the default split (n1 = 384) puts the odd factor on the column side.
  const idx_t n = 3 * (idx_t{1} << 16);
  auto x = random_cvec(n, 9545);
  const cvec want = stockham_oracle(x);
  // The flat oracle shares the engines' codelets, so pin it to a
  // long-double direct sum at a few bins (16 * eps * log2(N) of ||x||_2).
  const std::vector<idx_t> bins = {0, 1, n / 3, n / 2, n - 1};
  const auto exact = long_double_bins(x, bins);
  long double norm2 = 0;
  for (const cplx& v : x) norm2 += std::norm(std::complex<long double>(v));
  const double gate = 16.0 * std::numeric_limits<double>::epsilon() * 18.0 *
                      static_cast<double>(std::sqrt(norm2));
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const cplx w = want[static_cast<std::size_t>(bins[i])];
    EXPECT_LE(static_cast<double>(std::abs(
                  std::complex<long double>(w.real(), w.imag()) - exact[i])),
              gate)
        << "bin " << bins[i];
  }
  for (idx_t req : {idx_t{256}, idx_t{0}}) {
    FftOptions o = large_opts(4);
    o.factor_n1 = req;
    DoubleBufferEngine plan({n}, Direction::Forward, o);
    if (req > 0) {
      EXPECT_EQ(n / req, plan.plan().n2);
    }
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
        << "requested n1=" << req << " n2=" << plan.plan().n2;
  }
}

TEST(Fft1dLarge, TinySizesMatchFourStepSpec) {
  // An engine that executes a StagePlan IS its plan's term: at
  // dense-checkable sizes its output equals spl::plan_term(engine.plan())
  // applied to the same input. The table covers the four-step Columns /
  // Rows passes at pinned splits, the Flat pass (a prime size, and every
  // 1D stage-parallel plan), and the rotated 2D/3D chains, at packets
  // {1, kMu, auto} on one and four threads, both directions (the inverse
  // unnormalised).
  struct Shape {
    std::vector<idx_t> dims;
    idx_t n1;  // 1D four-step split (0: the default)
  };
  const Shape shapes[] = {{{32}, 4},   {{64}, 8},      {{48}, 3},
                          {{64}, 16},  {{17}, 0},      {{8, 16}, 0},
                          {{6, 4}, 0}, {{4, 4, 8}, 0}, {{2, 3, 6}, 0}};
  for (const Shape& s : shapes) {
    idx_t n = 1;
    for (idx_t d : s.dims) n *= d;
    // The packet must divide the fast dimension (in 1D: the row length
    // n2, as the column-group width); the Flat pass has no column group
    // and rejects a pinned packet.
    const idx_t fast = s.n1 > 0 ? n / s.n1 : s.dims.back();
    const bool flat =
        s.dims.size() == 1 && four_step_factors(n, s.n1).first <= 1;
    const cvec x = random_cvec(n, 9550 + n);
    for (idx_t mu : {idx_t{1}, kMu, idx_t{0}}) {
      if (mu > 0 && (flat || fast % mu != 0)) continue;
      for (int p : {1, 4}) {
        for (Direction dir : {Direction::Forward, Direction::Inverse}) {
          FftOptions o = large_opts(p);
          o.packet_elems = mu;
          o.factor_n1 = s.n1;
          auto check = [&](auto& engine) {
            cvec want(x.size());
            spl::plan_term(engine.plan(), dir)->apply(x.data(), want.data());
            cvec in = x, got(x.size());
            engine.execute(in.data(), got.data());
            EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
                << engine.name() << " n=" << n << " dims=" << s.dims.size()
                << "D mu=" << mu << " p=" << p
                << (dir == Direction::Forward ? " forward" : " inverse");
          };
          DoubleBufferEngine db(s.dims, dir, o);
          check(db);
          // The stage-parallel baseline: the same engine on its own plan
          // (in 1D the Flat pass, which has no column group to pin).
          if (s.dims.size() == 1 && mu > 0) continue;
          o.engine = EngineKind::StageParallel;
          auto sp = make_engine(s.dims, dir, o);
          check(dynamic_cast<DoubleBufferEngine&>(*sp));
        }
      }
    }
  }
}

TEST(Fft1dLarge, PrimeSizesDegenerateToFlat) {
  const idx_t n = 65537;  // Fermat prime: no divisor in [2, n/2]
  DoubleBufferEngine plan({n}, Direction::Forward, large_opts(1));
  EXPECT_EQ(1, plan.plan().n1);
  auto x = random_cvec(n, 9560);
  const cvec want = stockham_oracle(x);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)));
}

TEST(Fft1dLarge, ChooseFactorsPolicy) {
  // The default split is near-square: the largest n1 <= sqrt(n).
  EXPECT_EQ(std::make_pair(idx_t{2048}, idx_t{2048}),
            four_step_factors(idx_t{1} << 22, 0));
  EXPECT_EQ(std::make_pair(idx_t{4096}, idx_t{8192}),
            four_step_factors(idx_t{1} << 25, 0));
  EXPECT_EQ(std::make_pair(idx_t{1536}, idx_t{2048}),
            four_step_factors(idx_t{3} << 20, 0));
  EXPECT_EQ(std::make_pair(idx_t{1}, idx_t{65537}),
            four_step_factors(65537, 0));  // prime: the flat pass
  // Requests are honoured exactly, misfits rejected.
  EXPECT_EQ(std::make_pair(idx_t{16}, idx_t{256}),
            four_step_factors(4096, 16));
  EXPECT_THROW(four_step_factors(64, 5), Error);
}

TEST(Fft1dLarge, FourStepMatchesLongDoubleSumAtSampledBins) {
  // The 2^20 four-step on four threads, under the default Private
  // schedule and an explicit even Split, against a long-double direct
  // sum at 8 output bins: each bin's error stays within
  // 16 * eps * log2(N) of ||x||_2.
  const idx_t n = idx_t{1} << 20;
  const cvec x = random_cvec(n, 9570);
  const std::vector<idx_t> bins = {0,     1,          n / 2 - 1, n / 2,
                                   n - 1, 185991,    777777,    n / 3};
  const auto want = long_double_bins(x, bins);
  long double norm2 = 0;
  for (const cplx& v : x) norm2 += std::norm(std::complex<long double>(v));
  const double gate = 16.0 * std::numeric_limits<double>::epsilon() * 20.0 *
                      static_cast<double>(std::sqrt(norm2));
  for (int pc : {-1, 2}) {
    FftOptions o = large_opts(4);
    o.compute_threads = pc;
    DoubleBufferEngine plan({n}, Direction::Forward, o);
    EXPECT_EQ(pc < 0 ? Schedule::Private : Schedule::Split,
              plan.plan().schedule());
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    for (std::size_t i = 0; i < bins.size(); ++i) {
      const cplx g = got[static_cast<std::size_t>(bins[i])];
      const double err = static_cast<double>(
          std::abs(std::complex<long double>(g.real(), g.imag()) - want[i]));
      EXPECT_LE(err, gate) << "bin " << bins[i] << " p_c=" << pc;
    }
  }
}

// ---------------------------------------------------------------------------
// Small sizes, small blocks and requested splits against the dense
// oracle.
// ---------------------------------------------------------------------------

TEST(FourStepSpl, EqualsDenseDft) {
  // The four-step plan's term at a pinned split is DFT_n.
  for (auto [a, b] : {std::pair<idx_t, idx_t>{4, 4}, {4, 8}, {8, 4}, {3, 5}}) {
    FftOptions o;
    o.factor_n1 = a;
    const StagePlan plan = make_stage_plan({a * b}, o);
    ASSERT_EQ(a, plan.n1);
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      EXPECT_LT(spl::max_abs_diff(*spl::plan_term(plan, dir),
                                  *spl::dft(a * b, dir)),
                1e-10)
          << a << "x" << b;
    }
  }
}

/// A 512-element block: far below the policy, so both passes tile.
FftOptions small_block_opts(int threads) {
  FftOptions o = large_opts(threads);
  o.block_elems = 512;
  return o;
}

/// Run a plan on x and compare with the dense oracle.
void expect_matches_dense(DoubleBufferEngine& plan, const cvec& x) {
  const idx_t n = static_cast<idx_t>(x.size());
  cvec want(x.size());
  reference_dft_1d(x.data(), want.data(), n, Direction::Forward);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
      << "n=" << n << " n1=" << plan.plan().n1;
}

class DoubleBuffer1dSizes
    : public ::testing::TestWithParam<std::tuple<idx_t, int>> {};

TEST_P(DoubleBuffer1dSizes, MatchesReference) {
  const auto [n, threads] = GetParam();
  DoubleBufferEngine plan({n}, Direction::Forward, small_block_opts(threads));
  expect_matches_dense(plan, random_cvec(n, 8500 + n));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DoubleBuffer1dSizes,
    ::testing::Combine(::testing::Values<idx_t>(16, 64, 256, 512, 4096),
                       ::testing::Values(1, 2, 4)));

TEST(DoubleBuffer1d, LargerThanBufferSize) {
  // n far exceeds the block (32 KiB halves for a 1 MiB problem): both
  // passes tile into many blocks or claims. The Split plan (one compute
  // thread, Table II overlap) and the default Private plan run the same
  // arithmetic per column and row group, so their outputs are
  // bit-identical.
  const idx_t n = 1 << 16;
  auto x = random_cvec(n, 8600);
  const cvec want = stockham_oracle(x);
  for (int threads : {2, 4}) {
    FftOptions o = large_opts(threads);
    o.block_elems = 2048;
    DoubleBufferEngine plan({n}, Direction::Forward, o);
    ASSERT_EQ(Schedule::Private, plan.plan().schedule());
    EXPECT_GT(plan.plan().stages[0].iterations, 1);
    EXPECT_GT(plan.plan().stages[1].iterations, 1);
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)))
        << "threads=" << threads;
    o.compute_threads = 1;
    DoubleBufferEngine split({n}, Direction::Forward, o);
    ASSERT_EQ(Schedule::Split, split.plan().schedule());
    cvec in2 = x, overlapped(x.size());
    split.execute(in2.data(), overlapped.data());
    EXPECT_TRUE(got == overlapped) << "threads=" << threads;
  }
}

TEST(DoubleBuffer1d, InverseRoundTrip) {
  const idx_t n = 1024;
  auto x = random_cvec(n, 8700);
  FftOptions io = small_block_opts(2);
  io.normalize_inverse = true;
  DoubleBufferEngine fwd({n}, Direction::Forward, small_block_opts(2));
  DoubleBufferEngine inv({n}, Direction::Inverse, io);
  cvec a = x, b(x.size()), c(x.size());
  fwd.execute(a.data(), b.data());
  inv.execute(b.data(), c.data());
  EXPECT_LT(max_err(x, c), fft_tol(static_cast<double>(n)));
}

TEST(DoubleBuffer1d, SplitIsNearSquare) {
  // Below n ~ 2^18 the default split degrades to near-square.
  DoubleBufferEngine p1({1 << 10}, Direction::Forward, small_block_opts(1));
  EXPECT_EQ(32, p1.plan().n1);
  EXPECT_EQ(32, p1.plan().n2);
  DoubleBufferEngine p2({1 << 11}, Direction::Forward, small_block_opts(1));
  EXPECT_EQ(32, p2.plan().n1);
  EXPECT_EQ(64, p2.plan().n2);
}

TEST(DoubleBuffer1d, SmallAndNonPow2SizesPlan) {
  // Factors need not be powers of two: 12 = 3*4 and 8 = 2*4 both split.
  for (idx_t n : {idx_t{8}, idx_t{12}, idx_t{3 * 64}}) {
    DoubleBufferEngine plan({n}, Direction::Forward, small_block_opts(1));
    expect_matches_dense(plan, random_cvec(n, 8800 + n));
  }
}

TEST(DoubleBuffer1d, RejectsMisfitFactor) {
  FftOptions o = small_block_opts(1);
  o.factor_n1 = 5;  // does not divide 64
  EXPECT_THROW(DoubleBufferEngine({64}, Direction::Forward, o), Error);
}

TEST(DoubleBuffer1d, HonoursRequestedFactor) {
  const idx_t n = 1 << 12;
  FftOptions o = small_block_opts(2);
  o.factor_n1 = 16;  // non-square split by request
  DoubleBufferEngine plan({n}, Direction::Forward, o);
  EXPECT_EQ(16, plan.plan().n1);
  EXPECT_EQ(n / 16, plan.plan().n2);
  expect_matches_dense(plan, random_cvec(n, 8900));
}

}  // namespace
}  // namespace bwfft
