// Tests for the 1D FFT engine: all execution styles against the dense
// reference, analytic DFT properties, parameterised size sweeps over the
// Stockham schedules (powers of two and smooth sizes) and Bluestein, and
// real-valued signals through the complex transform.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "fft/reference.h"
#include "fft1d/fft1d.h"
#include "kernels/batch.h"
#include "kernels/isa.h"
#include "test_util.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;
using test::ShiftedBatch;

cvec reference_fft(const cvec& x, Direction dir) {
  cvec y(x.size());
  reference_dft_1d(x.data(), y.data(), static_cast<idx_t>(x.size()), dir);
  return y;
}

class Fft1dSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(Fft1dSizes, BatchMatchesReference) {
  const idx_t n = GetParam();
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 100 + n);
  auto want = reference_fft(x, Direction::Forward);
  cvec got = x;
  plan.apply_batch(got.data(), 1);
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n))) << "n=" << n;
}

TEST_P(Fft1dSizes, InverseMatchesReference) {
  const idx_t n = GetParam();
  Fft1d plan(n, Direction::Inverse);
  auto x = random_cvec(n, 200 + n);
  auto want = reference_fft(x, Direction::Inverse);
  cvec got = x;
  plan.apply_batch(got.data(), 1);
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n)));
}

TEST_P(Fft1dSizes, ForwardInverseRoundTrip) {
  const idx_t n = GetParam();
  Fft1d fwd(n, Direction::Forward), inv(n, Direction::Inverse);
  auto x = random_cvec(n, 300 + n);
  cvec y = x;
  fwd.apply_batch(y.data(), 1);
  inv.apply_batch(y.data(), 1);
  inv.scale_inverse(y.data(), n);
  EXPECT_LT(max_err(x, y), fft_tol(static_cast<double>(n)));
}

// Every size but 17 and 31 runs the Stockham sweep: n <= 16 as one codelet
// level, 60 at radices {6, 5, 2}, powers of two at radix 16 plus one
// 8/4/2 level. 17 and 31 run Bluestein; 1 is the no-op edge.
INSTANTIATE_TEST_SUITE_P(AllPaths, Fft1dSizes,
                         ::testing::Values<idx_t>(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                  10, 12, 15, 16, 17, 31, 32,
                                                  60, 64, 128, 256, 1024));

TEST(Fft1d, BatchTransformsEachPencilIndependently) {
  const idx_t n = 16, count = 5;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n * count, 42);
  cvec got = x;
  plan.apply_batch(got.data(), count);
  for (idx_t t = 0; t < count; ++t) {
    cvec pencil(x.begin() + t * n, x.begin() + (t + 1) * n);
    auto want = reference_fft(pencil, Direction::Forward);
    cvec gp(got.begin() + t * n, got.begin() + (t + 1) * n);
    EXPECT_LT(max_err(want, gp), fft_tol(16.0)) << "pencil " << t;
  }
}

class Fft1dLanes : public ::testing::TestWithParam<std::tuple<idx_t, idx_t>> {};

TEST_P(Fft1dLanes, LanesTransformEachLanePencil) {
  const auto [n, lanes] = GetParam();
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n * lanes, 77);
  cvec got = x;
  plan.apply_lanes(got.data(), lanes, 1);
  for (idx_t l = 0; l < lanes; ++l) {
    cvec pencil(static_cast<std::size_t>(n));
    for (idx_t j = 0; j < n; ++j) pencil[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j * lanes + l)];
    auto want = reference_fft(pencil, Direction::Forward);
    for (idx_t j = 0; j < n; ++j) {
      EXPECT_NEAR(0.0,
                  std::abs(want[static_cast<std::size_t>(j)] -
                           got[static_cast<std::size_t>(j * lanes + l)]),
                  fft_tol(static_cast<double>(n)))
          << "n=" << n << " lane " << l << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LaneShapes, Fft1dLanes,
    ::testing::Combine(::testing::Values<idx_t>(2, 4, 8, 32, 128),
                       ::testing::Values<idx_t>(1, 2, 4, 8)));

TEST(Fft1d, StridedInplaceMatchesBatch) {
  const idx_t n = 64, stride = 5;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n * stride, 7);
  cvec strided = x;
  plan.apply_strided_inplace(strided.data(), stride);
  cvec pencil(static_cast<std::size_t>(n));
  for (idx_t j = 0; j < n; ++j) pencil[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j * stride)];
  plan.apply_batch(pencil.data(), 1);
  for (idx_t j = 0; j < n; ++j) {
    EXPECT_NEAR(0.0,
                std::abs(pencil[static_cast<std::size_t>(j)] -
                         strided[static_cast<std::size_t>(j * stride)]),
                fft_tol(64.0));
    // Elements between strides must be untouched.
    for (idx_t o = 1; o < stride; ++o) {
      EXPECT_EQ(x[static_cast<std::size_t>(j * stride + o)],
                strided[static_cast<std::size_t>(j * stride + o)]);
    }
  }
}

TEST(Fft1d, StridedLanesMatchesGather) {
  // Every size with a Stockham schedule; Bluestein sizes are rejected.
  const idx_t lanes = 4, row_stride = 20;
  for (idx_t n : {idx_t{32}, idx_t{12}, idx_t{360}}) {
    Fft1d plan(n, Direction::Forward);
    auto x = random_cvec(n * row_stride, 8);
    cvec got = x;
    plan.apply_lanes_strided(got.data(), lanes, row_stride);
    for (idx_t l = 0; l < lanes; ++l) {
      cvec pencil(static_cast<std::size_t>(n));
      for (idx_t j = 0; j < n; ++j) pencil[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>(j * row_stride + l)];
      plan.apply_batch(pencil.data(), 1);
      for (idx_t j = 0; j < n; ++j) {
        EXPECT_NEAR(0.0,
                    std::abs(pencil[static_cast<std::size_t>(j)] -
                             got[static_cast<std::size_t>(j * row_stride + l)]),
                    fft_tol(static_cast<double>(n)))
            << "n=" << n;
      }
    }
  }
  cvec bluestein(17 * row_stride);
  EXPECT_THROW(Fft1d(17, Direction::Forward)
                   .apply_lanes_strided(bluestein.data(), lanes, row_stride),
               Error);
}

TEST(Fft1d, ScalarPathMatchesVectorPath) {
  const idx_t n = 256;
  auto x = random_cvec(n, 9);
  Fft1d plan(n, Direction::Forward);
  cvec vec_result = x;
  plan.apply_batch(vec_result.data(), 1);
  kernels::set_force_scalar(true);
  cvec scal_result = x;
  plan.apply_batch(scal_result.data(), 1);
  kernels::set_force_scalar(false);
  EXPECT_LT(max_err(vec_result, scal_result), 1e-13);
}

// Linearity: F(a x + b y) = a F(x) + b F(y).
TEST(Fft1d, Linearity) {
  const idx_t n = 128;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 10);
  auto y = random_cvec(n, 11);
  const cplx a(0.3, -1.2), b(2.0, 0.5);
  cvec mix(static_cast<std::size_t>(n));
  for (idx_t i = 0; i < n; ++i) mix[static_cast<std::size_t>(i)] = a * x[static_cast<std::size_t>(i)] + b * y[static_cast<std::size_t>(i)];
  plan.apply_batch(mix.data(), 1);
  cvec fx = x, fy = y;
  plan.apply_batch(fx.data(), 1);
  plan.apply_batch(fy.data(), 1);
  for (idx_t i = 0; i < n; ++i) {
    const cplx want = a * fx[static_cast<std::size_t>(i)] + b * fy[static_cast<std::size_t>(i)];
    EXPECT_NEAR(0.0, std::abs(want - mix[static_cast<std::size_t>(i)]), fft_tol(128.0));
  }
}

// Parseval: sum |x|^2 = (1/n) sum |X|^2.
TEST(Fft1d, Parseval) {
  const idx_t n = 512;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 12);
  double in_energy = 0.0;
  for (const auto& v : x) in_energy += std::norm(v);
  plan.apply_batch(x.data(), 1);
  double out_energy = 0.0;
  for (const auto& v : x) out_energy += std::norm(v);
  EXPECT_NEAR(in_energy, out_energy / static_cast<double>(n),
              1e-10 * in_energy);
}

// Shift theorem: x[(j+s) mod n] <-> X[k] * w^{-ks}.
TEST(Fft1d, ShiftTheorem) {
  const idx_t n = 64, s = 5;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 13);
  cvec shifted(static_cast<std::size_t>(n));
  for (idx_t j = 0; j < n; ++j) shifted[static_cast<std::size_t>(j)] = x[static_cast<std::size_t>((j + s) % n)];
  cvec fx = x;
  plan.apply_batch(fx.data(), 1);
  plan.apply_batch(shifted.data(), 1);
  for (idx_t k = 0; k < n; ++k) {
    // Y[k] = X[k] * e^{+2 pi i k s / n} for a left shift by s.
    const cplx w = root_of_unity(n, (k * s) % n, Direction::Inverse);
    EXPECT_NEAR(0.0,
                std::abs(shifted[static_cast<std::size_t>(k)] -
                         fx[static_cast<std::size_t>(k)] * w),
                fft_tol(64.0))
        << k;
  }
}

TEST(Fft1d, RejectsInvalidSizes) {
  EXPECT_THROW(Fft1d(0, Direction::Forward), Error);
  Fft1d plan(12, Direction::Forward);  // non-pow2
  cvec x(12);
  EXPECT_THROW(plan.apply_strided_inplace(x.data(), 1), Error);
}

// Smooth sizes run the Stockham sweep at their greedy radix schedule,
// contiguous and at 4 lanes.
class MixedRadixSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(MixedRadixSizes, MatchesReference) {
  const idx_t n = GetParam();
  ASSERT_TRUE(has_stockham_schedule(n));
  const idx_t lanes = 4;
  for (Direction dir : {Direction::Forward, Direction::Inverse}) {
    Fft1d plan(n, dir);
    auto x = random_cvec(n, 6500 + n);
    auto want = reference_fft(x, dir);
    cvec got = x;
    plan.apply_batch(got.data(), 1);
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n))) << n;
    // The same pencil in lane 2 of an n x 4 tile; the other lanes hold x
    // shifted, so a lane mix-up shows.
    cvec tile(static_cast<std::size_t>(n * lanes));
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t l = 0; l < lanes; ++l) {
        tile[static_cast<std::size_t>(j * lanes + l)] =
            x[static_cast<std::size_t>((j + 2 - l + n) % n)];
      }
    }
    plan.apply_lanes(tile.data(), lanes, 1);
    double err = 0.0;
    for (idx_t j = 0; j < n; ++j) {
      err = std::max(err, std::abs(want[static_cast<std::size_t>(j)] -
                                   tile[static_cast<std::size_t>(j * lanes + 2)]));
    }
    EXPECT_LT(err, fft_tol(static_cast<double>(n))) << n << " lanes";
  }
}

INSTANTIATE_TEST_SUITE_P(SmoothSizes, MixedRadixSizes,
                         ::testing::Values<idx_t>(12, 18, 20, 24, 30, 36, 48,
                                                  60, 100, 120, 144, 210, 240,
                                                  360, 1000));

TEST(MixedRadix, SupportDetection) {
  EXPECT_TRUE(has_stockham_schedule(1));
  EXPECT_TRUE(has_stockham_schedule(2 * 3 * 5 * 7));
  EXPECT_TRUE(has_stockham_schedule(1024));
  EXPECT_TRUE(has_stockham_schedule(11));  // n <= 16: one radix-11 level
  EXPECT_FALSE(has_stockham_schedule(17));
  EXPECT_FALSE(has_stockham_schedule(2 * 11));
  EXPECT_FALSE(has_stockham_schedule(13 * 3));
}

TEST(MixedRadix, Fft1dRoutesSmoothSizesToMixedRadix) {
  // 360 = 2^3 * 3^2 * 5 is smooth: Fft1d runs the Stockham sweep, which
  // has no convolution round-off amplification (Bluestein would also
  // pass at this tolerance).
  const idx_t n = 360;
  Fft1d plan(n, Direction::Forward);
  auto x = random_cvec(n, 6600);
  cvec want(x.size());
  reference_dft_1d(x.data(), want.data(), n, Direction::Forward);
  cvec got = x;
  plan.apply_batch(got.data(), 1);
  EXPECT_LT(max_err(want, got), fft_tol(360.0));
}

// Real-valued signals through the complex transform: the spectrum is
// Hermitian, so bins 0..n/2 carry it (examples/spectrum1d reads these).
cvec real_signal(idx_t n, std::uint64_t seed) {
  cvec v = random_cvec(n, seed);
  for (auto& x : v) x = cplx(x.real(), 0.0);
  return v;
}

class RealFftSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(RealFftSizes, ForwardMatchesComplexReference) {
  const idx_t n = GetParam();
  const cvec x = real_signal(n, 8000 + n);
  const cvec want = reference_fft(x, Direction::Forward);
  cvec got = x;
  Fft1d(n, Direction::Forward).apply_batch(got.data(), 1);
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(n))) << "n=" << n;
  for (idx_t k = 1; k < n; ++k) {
    EXPECT_NEAR(0.0,
                std::abs(got[static_cast<std::size_t>(k)] -
                         std::conj(got[static_cast<std::size_t>(n - k)])),
                fft_tol(static_cast<double>(n)))
        << "n=" << n << " k=" << k;
  }
}

TEST_P(RealFftSizes, RoundTrip) {
  const idx_t n = GetParam();
  const cvec x = real_signal(n, 8100 + n);
  Fft1d fwd(n, Direction::Forward), inv(n, Direction::Inverse);
  cvec y = x;
  fwd.apply_batch(y.data(), 1);
  inv.apply_batch(y.data(), 1);
  inv.scale_inverse(y.data(), n);
  EXPECT_LT(max_err(x, y), fft_tol(static_cast<double>(n))) << "n=" << n;
}

TEST_P(RealFftSizes, UnnormalizedInverseIsNTimesInput) {
  const idx_t n = GetParam();
  const cvec x = real_signal(n, 8200 + n);
  Fft1d fwd(n, Direction::Forward), inv(n, Direction::Inverse);
  cvec y = x;
  fwd.apply_batch(y.data(), 1);
  inv.apply_batch(y.data(), 1);
  for (idx_t j = 0; j < n; ++j) {
    EXPECT_NEAR(0.0,
                std::abs(static_cast<double>(n) * x[static_cast<std::size_t>(j)] -
                         y[static_cast<std::size_t>(j)]),
                fft_tol(static_cast<double>(n)) * static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RealFftSizes,
                         ::testing::Values<idx_t>(2, 4, 8, 6, 10, 16, 64, 100,
                                                  256, 1024));

TEST(RealFft, EdgeBinsAreReal) {
  const idx_t n = 32;
  cvec x = real_signal(n, 8300);
  Fft1d(n, Direction::Forward).apply_batch(x.data(), 1);
  EXPECT_NEAR(0.0, x[0].imag(), 1e-12);                               // DC
  EXPECT_NEAR(0.0, x[static_cast<std::size_t>(n / 2)].imag(), 1e-12);  // Nyquist
}

// Installs an ISA override for one scope (requests clamp to the host).
class IsaScope {
 public:
  explicit IsaScope(kernels::Isa isa) { kernels::set_isa_override(isa); }
  ~IsaScope() { kernels::set_isa_override(kernels::Isa::Auto); }
  IsaScope(const IsaScope&) = delete;
  IsaScope& operator=(const IsaScope&) = delete;
};

constexpr kernels::Isa kAllIsas[] = {kernels::Isa::Scalar, kernels::Isa::Avx2,
                                     kernels::Isa::Avx512};

/// Codelet chunk width G of the table apply_* dispatches to right now.
idx_t dispatched_width() {
  return kernels::batch_table(kernels::resolve_isa(kernels::Isa::Auto)).width;
}

// Contiguous-pencil batches: n <= 4096 gathers G pencils per tile on SIMD
// dispatch, n = 8192 and 3*4096 sit above the gather cap. The counts cover a lone
// pencil, a batch too small to gather, exact multiples of G, and the
// remainders (G+3 gathers a width-3 tail, 2G+1 a single leftover).
class GatheredBatch : public ::testing::TestWithParam<idx_t> {};

TEST_P(GatheredBatch, MatchesReferenceOnEveryIsaAndCount) {
  const idx_t n = GetParam();
  for (Direction dir : {Direction::Forward, Direction::Inverse}) {
    const ShiftedBatch oracle(n, dir, 900 + n);
    Fft1d plan(n, dir);
    for (kernels::Isa isa : kAllIsas) {
      IsaScope scope(isa);
      const idx_t g = dispatched_width();
      for (idx_t count : {idx_t{1}, g - 1, g, g + 3, 2 * g + 1, idx_t{64}}) {
        if (count < 1) continue;
        cvec data(static_cast<std::size_t>(n * count));
        for (idx_t p = 0; p < count; ++p) oracle.fill(data.data() + p * n, p);
        plan.apply_batch(data.data(), count);
        for (idx_t p = 0; p < count; ++p) {
          EXPECT_LT(oracle.error(data.data() + p * n, p),
                    fft_tol(static_cast<double>(n)))
              << "n=" << n << " isa=" << kernels::isa_name(isa)
              << " count=" << count << " pencil " << p;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, GatheredBatch,
                         ::testing::Values<idx_t>(2, 16, 64, 256, 4096, 8192));
INSTANTIATE_TEST_SUITE_P(Smooth, GatheredBatch,
                         ::testing::Values<idx_t>(12, 360, 768, 1000,
                                                  3 * 4096));

// Odd level counts (16 = 16; 512 = 16*16*2; 4096 = 16^3; 12 = 12;
// 768 = 16*16*3; 3*4096 = 16^3*3) end on a level that runs in place on the
// tile, even ones (360 = 8*5*3*3; 1000 = 8*5*5*5) on the scratch swap;
// lanes = 1 also covers the gather.
class OddLevelLanes
    : public ::testing::TestWithParam<std::tuple<idx_t, idx_t>> {};

TEST_P(OddLevelLanes, MatchesReferenceOnEveryIsa) {
  const auto [n, lanes] = GetParam();
  const idx_t count = 2;
  for (Direction dir : {Direction::Forward, Direction::Inverse}) {
    const ShiftedBatch oracle(n, dir, 950 + n);
    Fft1d plan(n, dir);
    for (kernels::Isa isa : kAllIsas) {
      IsaScope scope(isa);
      cvec data(static_cast<std::size_t>(n * lanes * count));
      // Lane l of tile t holds pencil t*lanes + l at element stride lanes.
      for (idx_t p = 0; p < lanes * count; ++p) {
        oracle.fill(data.data() + (p / lanes) * n * lanes + p % lanes, p,
                    lanes);
      }
      plan.apply_lanes(data.data(), lanes, count);
      for (idx_t p = 0; p < lanes * count; ++p) {
        EXPECT_LT(oracle.error(data.data() + (p / lanes) * n * lanes +
                                   p % lanes,
                               p, lanes),
                  fft_tol(static_cast<double>(n)))
            << "n=" << n << " lanes=" << lanes
            << " isa=" << kernels::isa_name(isa) << " pencil " << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    InPlaceLastLevel, OddLevelLanes,
    ::testing::Combine(::testing::Values<idx_t>(16, 512, 4096),
                       ::testing::Values<idx_t>(1, 4, 8, 32)));
INSTANTIATE_TEST_SUITE_P(
    Smooth, OddLevelLanes,
    ::testing::Combine(::testing::Values<idx_t>(12, 360, 768, 1000, 3 * 4096),
                       ::testing::Values<idx_t>(1, 4, 8, 32)));

}  // namespace
}  // namespace bwfft
