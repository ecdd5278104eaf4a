// Tests for the data-movement kernels: every transpose/rotation kernel is
// checked against its SPL term's dense semantics, plus round-trip
// properties. A transpose is the rotation K_c^{r,1} = L_c^{rc}: the 2D
// plan's stages run it through the rotation kernels with b = 1.
#include <gtest/gtest.h>

#include <thread>

#include "common/aligned.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "layout/rotate.h"
#include "kernels/batch.h"
#include "layout/stream_copy.h"
#include "spl/algorithms.h"
#include "test_util.h"

namespace bwfft {
namespace {

using test::max_err;

TEST(Transpose, MatchesStridePerm) {
  const idx_t r = 5, c = 7;
  auto x = random_cvec(r * c, 21);
  cvec got(x.size());
  rotate_cube(x.data(), got.data(), r, 1, c);
  auto want = (*spl::stride_perm(r * c, c))(x);
  EXPECT_EQ(0.0, max_err(want, got));
}

// The four-step row gather's tiled SIMD transpose against the plain one.
TEST(Transpose, TiledMatchesPlain) {
  const idx_t r = 37, c = 53;
  auto x = random_cvec(r * c, 22);
  cvec a(x.size()), b(x.size());
  rotate_cube(x.data(), a.data(), r, 1, c);
  kernels::dispatch_batch_table().transpose(x.data(), c, b.data(), r, r, c);
  EXPECT_EQ(0.0, max_err(a, b));
}

TEST(Transpose, RoundTripIsIdentity) {
  const idx_t r = 12, c = 20;
  auto x = random_cvec(r * c, 23);
  cvec t(x.size()), back(x.size());
  rotate_cube(x.data(), t.data(), r, 1, c);
  rotate_cube(t.data(), back.data(), c, 1, r);
  EXPECT_EQ(0.0, max_err(x, back));
}

class TransposePackets
    : public ::testing::TestWithParam<std::tuple<idx_t, idx_t, idx_t, bool>> {};

TEST_P(TransposePackets, MatchesBlockedStridePerm) {
  const auto [r, c, mu, nt] = GetParam();
  auto x = random_cvec(r * c * mu, 24);
  cvec got(x.size());
  rotate_cube_packets(x.data(), got.data(), r, 1, c, mu, nt);
  stream_fence();
  // (L_c^{rc} (x) I_mu)
  auto want = (*spl::kron(spl::stride_perm(r * c, c), spl::identity(mu)))(x);
  EXPECT_EQ(0.0, max_err(want, got));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposePackets,
    ::testing::Combine(::testing::Values<idx_t>(2, 17, 32),
                       ::testing::Values<idx_t>(3, 16),
                       ::testing::Values<idx_t>(1, 4),
                       ::testing::Bool()));

TEST(Rotate, MatchesRotationK) {
  const idx_t a = 3, b = 4, c = 5;
  auto x = random_cvec(a * b * c, 25);
  cvec got(x.size());
  rotate_cube(x.data(), got.data(), a, b, c);
  auto want = (*spl::rotation_k(a, b, c))(x);
  EXPECT_EQ(0.0, max_err(want, got));
}

class RotatePackets
    : public ::testing::TestWithParam<std::tuple<idx_t, idx_t, idx_t, idx_t>> {};

TEST_P(RotatePackets, MatchesBlockedRotation) {
  const auto [a, b, cp, mu] = GetParam();
  auto x = random_cvec(a * b * cp * mu, 26);
  cvec got(x.size());
  rotate_cube_packets(x.data(), got.data(), a, b, cp, mu, false);
  auto want = (*spl::rotation_k_blocked(a, b, cp * mu, mu))(x);
  EXPECT_EQ(0.0, max_err(want, got));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RotatePackets,
    ::testing::Combine(::testing::Values<idx_t>(2, 5), ::testing::Values<idx_t>(3, 4),
                       ::testing::Values<idx_t>(2, 6), ::testing::Values<idx_t>(1, 4)));

TEST(Rotate, ThreeRotationsRestoreCube) {
  const idx_t k = 4, n = 6, m = 8;
  auto x = random_cvec(k * n * m, 27);
  cvec t1(x.size()), t2(x.size()), t3(x.size());
  rotate_cube(x.data(), t1.data(), k, n, m);   // k x n x m -> m x k x n
  rotate_cube(t1.data(), t2.data(), m, k, n);  // -> n x m x k
  rotate_cube(t2.data(), t3.data(), n, m, k);  // -> k x n x m
  EXPECT_EQ(0.0, max_err(x, t3));
}

// rotate_store_rows is W_{b,i} restricted to a row range: storing all rows
// in two halves must equal the whole rotation.
TEST(Rotate, PartialRowStoresComposeToWholeRotation) {
  const idx_t a = 4, b = 3, cp = 5, mu = 2;
  auto x = random_cvec(a * b * cp * mu, 28);
  cvec whole(x.size()), parts(x.size());
  rotate_cube_packets(x.data(), whole.data(), a, b, cp, mu, false);
  const idx_t rows = a * b, half_rows = rows / 2;
  rotate_store_rows(x.data(), parts.data(), 0, half_rows, a, b, cp, mu, false);
  rotate_store_rows(x.data() + half_rows * cp * mu, parts.data(), half_rows,
                    rows - half_rows, a, b, cp, mu, false);
  EXPECT_EQ(0.0, max_err(whole, parts));
}

TEST(StreamCopy, NonTemporalEqualsMemcpy) {
  for (idx_t n : {1, 2, 3, 4, 7, 64, 1000}) {
    auto x = random_cvec(n, 29);
    cvec a(x.size()), b(x.size());
    copy_stream(a.data(), x.data(), n, true);
    stream_fence();
    copy_stream(b.data(), x.data(), n, false);
    EXPECT_EQ(0.0, max_err(a, b)) << n;
  }
}

TEST(StreamCopy, UnalignedDestinationFallsBack) {
  auto x = random_cvec(17, 30);
  cvec dst(18);
  copy_stream(dst.data() + 1, x.data(), 17, true);  // 16B-misaligned dst
  for (idx_t i = 0; i < 17; ++i) {
    EXPECT_EQ(x[static_cast<std::size_t>(i)], dst[static_cast<std::size_t>(i + 1)]);
  }
}

TEST(StreamCopy, FillStream) {
  cvec dst(64);
  fill_stream(dst.data(), cplx(3, -2), 64, true);
  stream_fence();
  for (const auto& v : dst) EXPECT_EQ(cplx(3, -2), v);
}

TEST(StreamCopy, FillStreamOddCountFillsEveryElement) {
  // Regression: an odd count used to take the all-scalar fallback for the
  // whole range; now the even prefix streams and only the final element
  // is stored normally — and every element must still be written.
  for (idx_t count : {1, 3, 33, 63}) {
    AlignedBuffer<cplx> dst(static_cast<std::size_t>(count) + 1);
    const cplx sentinel(-7.0, 7.0);
    const cplx value(3.0, -2.0);
    for (idx_t i = 0; i <= count; ++i) {
      dst[static_cast<std::size_t>(i)] = sentinel;
    }
    fill_stream(dst.data(), value, count, true);
    for (idx_t i = 0; i < count; ++i) {
      EXPECT_EQ(value, dst[static_cast<std::size_t>(i)]) << "i=" << i;
    }
    // No overrun past count.
    EXPECT_EQ(sentinel, dst[static_cast<std::size_t>(count)]);
  }
}

#if defined(BWFFT_OBS) && defined(__AVX__)
TEST(StreamCopy, FillStreamOddCountStillUsesNonTemporalStores) {
  // Regression (observable half of the odd-count bug): with a 33-element
  // aligned fill, the even 32-element prefix must go through NT stores —
  // 32 cplx = 64 doubles = 16 32-byte streams — instead of zero.
  AlignedBuffer<cplx> dst(33);
  obs::reset_counters();
  fill_stream(dst.data(), cplx(1.0, 2.0), 33, true);
  EXPECT_EQ(16u, obs::counter_total(obs::Counter::NtStores));
  obs::reset_counters();
}
#endif

TEST(StreamCopy, FillStreamVisibleToOtherThreadAfterJoin) {
  // The NT path now ends with its own stream_fence(), so a consumer that
  // synchronizes only via thread join / barrier (no explicit fence of its
  // own) must observe the filled values.
  AlignedBuffer<cplx> dst(1024);
  std::thread producer(
      [&] { fill_stream(dst.data(), cplx(5.0, -5.0), 1024, true); });
  producer.join();
  for (std::size_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(cplx(5.0, -5.0), dst[i]) << "i=" << i;
  }
}

}  // namespace
}  // namespace bwfft
