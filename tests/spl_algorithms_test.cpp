// Tests for the paper's SPL factorisations: every decomposition of
// §II-D/§III-A/§III-B/§IV-B must equal the dense multidimensional DFT.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "pipeline/stage_plan.h"
#include "spl/algorithms.h"
#include "spl/verify.h"
#include "test_util.h"
#include "tune/candidates.h"

namespace bwfft::spl {
namespace {

using bwfft::test::max_err;

/// The dense Kronecker DFT of dims (slowest first).
ExprPtr dense_dft(const std::vector<idx_t>& dims,
                  Direction dir = Direction::Forward) {
  ExprPtr e = dft(dims.back(), dir);
  for (std::size_t i = dims.size() - 1; i-- > 0;) {
    e = kron(dft(dims[i], dir), e);
  }
  return e;
}

std::string dims_str(const std::vector<idx_t>& dims) {
  std::string s;
  for (idx_t d : dims) s += (s.empty() ? "" : "x") + std::to_string(d);
  return s;
}

/// plan_term of `plan` is verify-clean and equals the dense DFT of its
/// dims, forward and inverse.
void expect_plan_term_is_dft(const StagePlan& plan) {
  for (Direction dir : {Direction::Forward, Direction::Inverse}) {
    const ExprPtr term = plan_term(plan, dir);
    const VerifyReport rep = verify(*term);
    EXPECT_TRUE(rep.ok()) << rep.str();
    EXPECT_LT(max_abs_diff(*term, *dense_dft(plan.dims, dir)), 1e-10)
        << dims_str(plan.dims) << " mu=" << plan.mu << " n1=" << plan.n1
        << (dir == Direction::Forward ? " forward" : " inverse");
  }
}

/// The plan the engines run for dims with the rotation packet pinned
/// (0 = the plan's auto packet).
StagePlan plan_with_packet(const std::vector<idx_t>& dims, idx_t mu) {
  FftOptions opts;
  opts.packet_elems = mu;
  return make_stage_plan(dims, opts);
}

TEST(SplAlgorithms, CooleyTukeyEqualsDenseDft) {
  for (auto [m, n] : {std::pair<idx_t, idx_t>{2, 4},
                      {4, 4},
                      {8, 2},
                      {3, 5},
                      {4, 6}}) {
    auto ct = cooley_tukey(m, n);
    EXPECT_LT(max_abs_diff(*ct, *dft(m * n)), 1e-10)
        << "m=" << m << " n=" << n;
  }
}

TEST(SplAlgorithms, CooleyTukeyInverseDirection) {
  auto ct = cooley_tukey(4, 4, Direction::Inverse);
  EXPECT_LT(max_abs_diff(*ct, *dft(16, Direction::Inverse)), 1e-10);
}

TEST(SplAlgorithms, Pencil2dEqualsDense) {
  EXPECT_LT(max_abs_diff(*dft2d_pencil(4, 6), *dense_dft({4, 6})), 1e-10);
}

TEST(SplAlgorithms, Transposed2dEqualsDense) {
  EXPECT_LT(max_abs_diff(*dft2d_transposed(4, 6), *dense_dft({4, 6})), 1e-10);
  EXPECT_LT(max_abs_diff(*dft2d_transposed(8, 4), *dense_dft({8, 4})), 1e-10);
}

TEST(SplAlgorithms, Blocked2dEqualsDense) {
  // The 2D plan is the cacheline-blocked form of §III-A; mu = 2 and 4
  // cover its packet blocking.
  expect_plan_term_is_dft(plan_with_packet({4, 8}, 2));
  expect_plan_term_is_dft(plan_with_packet({4, 8}, 4));
  expect_plan_term_is_dft(plan_with_packet({6, 4}, 2));
}

TEST(SplAlgorithms, Pencil3dEqualsDense) {
  EXPECT_LT(max_abs_diff(*dft3d_pencil(2, 4, 4), *dense_dft({2, 4, 4})), 1e-10);
}

TEST(SplAlgorithms, SlabPencil3dEqualsDense) {
  EXPECT_LT(max_abs_diff(*dft3d_slab_pencil(3, 2, 4), *dense_dft({3, 2, 4})),
            1e-10);
}

// Fig 5 semantics: K_c^{a,b} maps cube a x b x c to cube c x a x b with
// out[ci][ai][bi] = in[ai][bi][ci].
TEST(SplAlgorithms, RotationMovesCubeEntries) {
  const idx_t a = 2, b = 3, c = 4;
  auto x = random_cvec(a * b * c, 13);
  auto y = (*rotation_k(a, b, c))(x);
  for (idx_t ai = 0; ai < a; ++ai) {
    for (idx_t bi = 0; bi < b; ++bi) {
      for (idx_t ci = 0; ci < c; ++ci) {
        EXPECT_EQ(x[static_cast<std::size_t>(ai * b * c + bi * c + ci)],
                  y[static_cast<std::size_t>(ci * a * b + ai * b + bi)]);
      }
    }
  }
}

// Three rotations cycle the cube back to the original orientation.
TEST(SplAlgorithms, ThreeRotationsAreIdentity) {
  const idx_t k = 2, n = 3, m = 4;
  auto three = compose({
      rotation_k(n, m, k),  // n x m x k -> k x n x m
      rotation_k(m, k, n),  // m x k x n -> n x m x k
      rotation_k(k, n, m),  // k x n x m -> m x k x n
  });
  EXPECT_LT(max_abs_diff(*three, *identity(k * n * m)), 1e-15);
}

TEST(SplAlgorithms, BlockedRotationWithMuOneIsElementRotation) {
  EXPECT_LT(max_abs_diff(*rotation_k_blocked(2, 3, 4, 1), *rotation_k(2, 3, 4)),
            1e-15);
}

// The paper's adopted decomposition (§III-A), as the 3D plan runs it,
// equals the dense 3D DFT and ends in natural order — for several shapes
// (non-powers of two too) and packet sizes.
TEST(SplAlgorithms, Rotated3dEqualsDense) {
  struct Case {
    idx_t k, n, m, mu;
  };
  for (const Case& c : {Case{2, 2, 4, 2}, Case{2, 4, 4, 4}, Case{4, 2, 8, 4},
                        Case{3, 2, 4, 2}, Case{2, 3, 6, 2}, Case{3, 5, 6, 3}}) {
    expect_plan_term_is_dft(plan_with_packet({c.k, c.n, c.m}, c.mu));
  }
}

// The 2D chain at the packet the plan picks itself.
TEST(SplAlgorithms, Rotated2dViaBlockedFormulaEqualsDense) {
  for (const std::vector<idx_t>& dims :
       {std::vector<idx_t>{4, 8}, {8, 16}, {6, 4}, {5, 6}}) {
    expect_plan_term_is_dft(plan_with_packet(dims, 0));
  }
}

// Every plan the tuner grid can hand an engine that executes the
// StagePlan (double-buffer and stage-parallel) has a verify-clean term
// equal to the dense DFT. The schedule knobs (split, block, NT, ISA)
// leave the term unchanged, so each distinct term is densified once.
TEST(SplAlgorithms, PlanTermsOfTheTunerGridEqualDense) {
  const std::vector<std::vector<idx_t>> shapes = {
      {64}, {192}, {256}, {17},  // four-step, 3 * 2^6, Flat (prime)
      {8, 16}, {16, 16}, {6, 4},
      {4, 4, 8}, {8, 8, 8}, {4, 8, 16}, {2, 8, 8}, {2, 3, 6}};
  for (const auto& dims : shapes) {
    std::set<std::string> seen;
    for (int threads : {1, 4}) {
      FftOptions req;
      req.engine = EngineKind::Auto;
      req.threads = threads;
      for (const auto& c : tune::enumerate_candidates(dims, req)) {
        const bool runs_plan = c.engine == EngineKind::DoubleBuffer ||
                               c.engine == EngineKind::StageParallel;
        if (!runs_plan) continue;
        const StagePlan plan =
            make_stage_plan(dims, tune::apply_candidate(c, req));
        const ExprPtr term = plan_term(plan);
        EXPECT_TRUE(verify(*term).ok()) << tune::candidate_label(c);
        if (seen.insert(term->str()).second) expect_plan_term_is_dft(plan);
      }
    }
    EXPECT_FALSE(seen.empty()) << dims_str(dims);
  }
}

// §III-B: the tiled stage-1 sum over W_{b,i} . compute . R_{b,i} equals
// the untiled stage 1.
TEST(SplAlgorithms, TiledStage1SumEqualsWholeStage) {
  const idx_t k = 2, n = 4, m = 4, mu = 2, b = 16;
  auto whole = compose({rotation_k_blocked(k, n, m, mu),
                        kron(identity(k * n), dft(m))});
  auto iters = stage1_tiled(k, n, m, mu, b);
  ASSERT_EQ(static_cast<std::size_t>(k * n * m / b), iters.size());
  auto x = random_cvec(k * n * m, 14);
  cvec acc(static_cast<std::size_t>(k * n * m), cplx(0, 0));
  for (const auto& it : iters) {
    auto piece = (*it)(x);
    for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += piece[j];
  }
  auto want = (*whole)(x);
  EXPECT_LT(max_err(want, acc), 1e-10);
}

// Read matrices load contiguous windows (streaming-friendly, §III-C).
TEST(SplAlgorithms, ReadMatrixIsContiguousWindow) {
  auto x = random_cvec(24, 15);
  auto y = (*read_matrix(24, 6, 2))(x);
  for (idx_t j = 0; j < 6; ++j) EXPECT_EQ(x[static_cast<std::size_t>(12 + j)], y[static_cast<std::size_t>(j)]);
}

// Table III / §IV-B: the term of the socket plan (the dual-socket
// factorisation) equals the dense 3D DFT for two sockets, and degrades to
// the single-socket term for sk = 1.
TEST(SplAlgorithms, DualSocketEqualsDense) {
  struct Case {
    idx_t k, n, m, mu;
    int sk;
  };
  for (const Case& c : {Case{4, 4, 4, 2, 2}, Case{4, 2, 4, 2, 2},
                        Case{2, 2, 4, 2, 1}, Case{4, 4, 8, 4, 2}}) {
    FftOptions opts;
    opts.threads = 4;  // a multiple of every sk
    opts.packet_elems = c.mu;
    auto got = plan_term(make_stage_plan({c.k, c.n, c.m}, opts, c.sk));
    EXPECT_LT(max_abs_diff(*got, *dense_dft({c.k, c.n, c.m})), 1e-10)
        << c.k << "x" << c.n << "x" << c.m << " sk=" << c.sk;
  }
}

// Stage-1 writes must stay within the owning socket's slab: W1 applied to
// a vector supported on socket 0's slab stays in socket 0's slab.
TEST(SplAlgorithms, DualSocketW1IsSocketLocal) {
  const idx_t k = 4, n = 2, m = 4, mu = 2, sk = 2;
  const idx_t slab = k * n * m / sk;
  auto w1 = dual_socket_w1(k, n, m, mu, sk);
  cvec x(static_cast<std::size_t>(k * n * m), cplx(0, 0));
  fill_random(x.data(), slab, 16);  // support only on slab 0
  auto y = (*w1)(x);
  for (idx_t j = slab; j < k * n * m; ++j) {
    EXPECT_EQ(cplx(0, 0), y[static_cast<std::size_t>(j)]);
  }
}

// The socket term is the term of the socket plan, which exists only where
// sk divides k and n.
TEST(SplAlgorithms, DualSocketRequiresDivisibility) {
  FftOptions opts;
  opts.packet_elems = 2;
  EXPECT_THROW(plan_term(make_stage_plan({3, 4, 4}, opts, 2)), Error);  // k
  EXPECT_THROW(plan_term(make_stage_plan({4, 3, 4}, opts, 2)), Error);  // n
}

}  // namespace
}  // namespace bwfft::spl
