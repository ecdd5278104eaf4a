// Property-based and configuration-equivalence tests for the engines:
// mathematical DFT properties on the core engine, equality of results
// across every ablation configuration (non-temporal, packet size, scalar
// kernels, buffer size, thread counts), plan reuse, and non-power-of-two
// support via the Stockham sweep (smooth sizes) and Bluestein.
#include <gtest/gtest.h>

#include <random>

#include "common/rng.h"
#include "fft/double_buffer.h"
#include "fft/fft.h"
#include "fft/reference.h"
#include "fft/stage.h"
#include "kernels/isa.h"
#include "test_util.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;

cvec run_3d(idx_t k, idx_t n, idx_t m, const FftOptions& o, const cvec& x,
            Direction dir = Direction::Forward) {
  Fft3d plan(k, n, m, dir, o);
  cvec in = x, out(x.size());
  plan.execute(in.data(), out.data());
  return out;
}

FftOptions base_opts() {
  FftOptions o;
  o.threads = 2;
  o.block_elems = 1024;
  return o;
}

TEST(EngineProperties, Parseval3d) {
  const idx_t k = 8, n = 8, m = 16;
  auto x = random_cvec(k * n * m, 7000);
  double in_energy = 0.0;
  for (const auto& v : x) in_energy += std::norm(v);
  auto y = run_3d(k, n, m, base_opts(), x);
  double out_energy = 0.0;
  for (const auto& v : y) out_energy += std::norm(v);
  EXPECT_NEAR(in_energy, out_energy / static_cast<double>(k * n * m),
              1e-9 * in_energy);
}

TEST(EngineProperties, Linearity3d) {
  const idx_t k = 4, n = 8, m = 8;
  auto x = random_cvec(k * n * m, 7001);
  auto y = random_cvec(k * n * m, 7002);
  const cplx a(1.5, -0.25), b(-0.75, 2.0);
  cvec mix(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) mix[i] = a * x[i] + b * y[i];
  auto fx = run_3d(k, n, m, base_opts(), x);
  auto fy = run_3d(k, n, m, base_opts(), y);
  auto fmix = run_3d(k, n, m, base_opts(), mix);
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(fmix[i] - (a * fx[i] + b * fy[i])));
  }
  EXPECT_LT(err, fft_tol(static_cast<double>(k * n * m)));
}

// Real input => Hermitian spectrum: X[-k] = conj(X[k]) in all dimensions.
TEST(EngineProperties, HermitianSymmetryForRealInput) {
  const idx_t k = 4, n = 8, m = 8;
  cvec x(static_cast<std::size_t>(k * n * m));
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> d(-1, 1);
  for (auto& v : x) v = cplx(d(gen), 0.0);
  auto y = run_3d(k, n, m, base_opts(), x);
  for (idx_t z = 0; z < k; ++z) {
    for (idx_t yy = 0; yy < n; ++yy) {
      for (idx_t xx = 0; xx < m; ++xx) {
        const idx_t fwd = z * n * m + yy * m + xx;
        const idx_t neg = ((k - z) % k) * n * m + ((n - yy) % n) * m +
                          ((m - xx) % m);
        EXPECT_NEAR(0.0,
                    std::abs(y[static_cast<std::size_t>(fwd)] -
                             std::conj(y[static_cast<std::size_t>(neg)])),
                    fft_tol(256.0));
      }
    }
  }
}

// Every ablation configuration computes the same transform.
TEST(EngineEquivalence, ConfigurationsAgree) {
  const idx_t k = 8, n = 8, m = 16;
  auto x = random_cvec(k * n * m, 7100);
  auto want = run_3d(k, n, m, base_opts(), x);

  {
    FftOptions o = base_opts();
    o.nontemporal = false;
    EXPECT_LT(max_err(want, run_3d(k, n, m, o, x)), 1e-12) << "temporal";
  }
  {
    FftOptions o = base_opts();
    o.packet_elems = 1;  // element-wise rotation
    EXPECT_LT(max_err(want, run_3d(k, n, m, o, x)), 1e-12) << "mu=1";
  }
  {
    FftOptions o = base_opts();
    o.packet_elems = 2;
    EXPECT_LT(max_err(want, run_3d(k, n, m, o, x)), 1e-12) << "mu=2";
  }
  {
    kernels::set_force_scalar(true);
    FftOptions o = base_opts();
    auto got = run_3d(k, n, m, o, x);
    kernels::set_force_scalar(false);
    EXPECT_LT(max_err(want, got), fft_tol(1024.0)) << "scalar";
  }
  {
    FftOptions o = base_opts();
    o.block_elems = 128;  // many iterations
    EXPECT_LT(max_err(want, run_3d(k, n, m, o, x)), 1e-12) << "tiny block";
  }
  {
    FftOptions o = base_opts();
    o.block_elems = 1 << 20;  // single iteration per stage
    EXPECT_LT(max_err(want, run_3d(k, n, m, o, x)), 1e-12) << "huge block";
  }
  for (int threads : {1, 3, 5, 8}) {
    FftOptions o = base_opts();
    o.threads = threads;
    EXPECT_LT(max_err(want, run_3d(k, n, m, o, x)), 1e-14)
        << "threads=" << threads;
  }
  {
    FftOptions o = base_opts();
    o.threads = 4;
    o.pin_threads = true;  // pinning must not change results
    EXPECT_LT(max_err(want, run_3d(k, n, m, o, x)), 1e-12) << "pinned";
  }
}

// Non-power-of-two cubes: smooth sizes run the Stockham sweep at their
// greedy radix schedule, a prime above 16 runs Bluestein.
class NonPow2Shapes
    : public ::testing::TestWithParam<std::tuple<idx_t, idx_t, idx_t>> {};

TEST_P(NonPow2Shapes, DoubleBufferMatchesReference) {
  const auto [k, n, m] = GetParam();
  auto x = random_cvec(k * n * m, 7200 + k + n + m);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
  auto got = run_3d(k, n, m, base_opts(), x);
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(k * n * m)))
      << k << "x" << n << "x" << m;
}

TEST_P(NonPow2Shapes, StageParallelMatchesReference) {
  const auto [k, n, m] = GetParam();
  auto x = random_cvec(k * n * m, 7300 + k + n + m);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
  FftOptions o = base_opts();
  o.engine = EngineKind::StageParallel;
  auto got = run_3d(k, n, m, o, x);
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(k * n * m)));
}

INSTANTIATE_TEST_SUITE_P(
    Smooth, NonPow2Shapes,
    ::testing::ValuesIn(std::vector<std::tuple<idx_t, idx_t, idx_t>>{
        {6, 10, 12},
        {3, 5, 6},
        {12, 6, 20},
        {5, 7, 9},      // odd fast dim => mu = 1 path
        {4, 4, 17},     // prime fast dim => Bluestein pencil kernel
    }));

TEST(EngineReuse, RepeatedExecutionsAreIdentical) {
  const idx_t k = 4, n = 8, m = 8;
  auto x = random_cvec(k * n * m, 7400);
  Fft3d plan(k, n, m, Direction::Forward, base_opts());
  cvec in1 = x, out1(x.size()), in2 = x, out2(x.size());
  plan.execute(in1.data(), out1.data());
  plan.execute(in2.data(), out2.data());
  EXPECT_EQ(0.0, max_err(out1, out2));
}

TEST(EngineReuse, MovedPlanStillWorks) {
  const idx_t n = 8, m = 16;
  auto x = random_cvec(n * m, 7500);
  cvec want(x.size());
  reference_dft_2d(x.data(), want.data(), n, m, Direction::Forward);
  Fft2d a(n, m, Direction::Forward, base_opts());
  Fft2d b = std::move(a);
  cvec in = x, out(x.size());
  b.execute(in.data(), out.data());
  EXPECT_LT(max_err(want, out), fft_tol(128.0));
}

TEST(EngineStats, StageStatsPopulated) {
  const idx_t k = 8, n = 8, m = 16;
  FftOptions o = base_opts();
  DoubleBufferEngine eng({k, n, m}, Direction::Forward, o);
  auto x = random_cvec(k * n * m, 7600);
  cvec out(x.size());
  eng.execute(x.data(), out.data());
  const auto& st = eng.last_stats();
  ASSERT_EQ(3u, st.size());
  idx_t covered = 0;
  for (const auto& s : st) {
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_GE(s.iterations, 1);
    EXPECT_GE(s.block_rows, 1);
    covered += s.iterations * s.block_rows;
  }
  // Each stage covers all of its rows; total rows over 3 stages. The
  // auto packet width depends on the dispatched ISA: read the plan's.
  const idx_t mu = eng.plan().mu;
  EXPECT_EQ(k * n + (m / mu) * k + n * (m / mu), covered);
}

// Seeded random shape/engine sweep — a lightweight fuzz of the planner.
TEST(EngineFuzz, RandomPow2ShapesAllEnginesAgree) {
  std::mt19937_64 gen(123);
  auto rand_dim = [&](idx_t max_log) {
    return idx_t{1} << (1 + gen() % max_log);
  };
  for (int trial = 0; trial < 12; ++trial) {
    const idx_t k = rand_dim(4), n = rand_dim(4), m = rand_dim(4);
    auto x = random_cvec(k * n * m, 7700 + trial);
    cvec want(x.size());
    reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
    for (EngineKind e : {EngineKind::Pencil, EngineKind::StageParallel,
                         EngineKind::SlabPencil, EngineKind::DoubleBuffer}) {
      FftOptions o = base_opts();
      o.engine = e;
      o.threads = 1 + static_cast<int>(gen() % 4);
      auto got = run_3d(k, n, m, o, x);
      EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(k * n * m)))
          << engine_name(e) << " " << k << "x" << n << "x" << m;
    }
  }
}

}  // namespace
}  // namespace bwfft
