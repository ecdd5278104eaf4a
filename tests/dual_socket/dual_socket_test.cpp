// Tests for the dual-socket 3D engine: correctness against the reference,
// the Fig 8 data-flow properties (stage-1 locality, cross-link traffic
// bounds), each socket's pipeline schedule, the static model of the
// socket plan, and degradation to the single-socket algorithm at sk = 1.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "analysis/static_verify.h"
#include "common/rng.h"
#include "fft/dual_socket.h"
#include "fft/reference.h"
#include "pipeline/stage_plan.h"

namespace bwfft {
namespace {

using test::fft_tol;
using test::max_err;

FftOptions ds_opts(int threads) {
  FftOptions o;
  o.threads = threads;
  o.block_elems = 256;
  return o;
}

class DualSocketCases
    : public ::testing::TestWithParam<std::tuple<idx_t, idx_t, idx_t, int>> {};

TEST_P(DualSocketCases, MatchesReference) {
  const auto [k, n, m, threads] = GetParam();
  const idx_t total = k * n * m;
  auto x = random_cvec(total, 4000 + total);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);

  DualSocketFft3d plan(k, n, m, Direction::Forward, ds_opts(threads), 2);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(total)))
      << k << "x" << n << "x" << m << " threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DualSocketCases,
    ::testing::ValuesIn(std::vector<std::tuple<idx_t, idx_t, idx_t, int>>{
        {4, 4, 8, 2},
        {4, 4, 8, 4},
        {8, 4, 16, 4},
        {2, 2, 4, 2},
        {16, 8, 8, 8},
        {4, 8, 4, 6}}));

TEST(DualSocket, SingleSocketDegenerate) {
  const idx_t k = 4, n = 4, m = 8;
  auto x = random_cvec(k * n * m, 5000);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
  DualSocketFft3d plan(k, n, m, Direction::Forward, ds_opts(2), 1);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(k * n * m)));
  EXPECT_EQ(0u, plan.traffic().write_bytes());  // sk=1: nothing crosses
}

TEST(DualSocket, InverseRoundTrip) {
  const idx_t k = 8, n = 4, m = 8;
  auto x = random_cvec(k * n * m, 5001);
  auto fwd_opts = ds_opts(4);
  auto inv_opts = ds_opts(4);
  inv_opts.normalize_inverse = true;
  DualSocketFft3d fwd(k, n, m, Direction::Forward, fwd_opts, 2);
  DualSocketFft3d inv(k, n, m, Direction::Inverse, inv_opts, 2);
  cvec a = x, b(x.size()), c(x.size());
  fwd.execute(a.data(), b.data());
  inv.execute(b.data(), c.data());
  EXPECT_LT(max_err(x, c), fft_tol(static_cast<double>(k * n * m)));
}

TEST(DualSocket, DistributedApiMatchesContiguous) {
  const idx_t k = 4, n = 4, m = 8, total = k * n * m;
  auto x = random_cvec(total, 5002);
  DualSocketFft3d plan(k, n, m, Direction::Forward, ds_opts(2), 2);

  cvec in = x, got_c(x.size());
  plan.execute(in.data(), got_c.data());

  NumaArray xa(2, total / 2), ya(2, total / 2);
  xa.from_contiguous(x);
  plan.execute_distributed(xa, ya);
  auto got_d = ya.to_contiguous();
  EXPECT_LT(max_err(got_c, got_d), 1e-15);
}

// Fig 8: stage 2 and 3 each write at most half the data set across the
// link for sk=2 (only the packets owned by the other socket cross), so
// total cross traffic <= 2 * N/2 elements.
TEST(DualSocket, CrossLinkTrafficIsBounded) {
  const idx_t k = 8, n = 8, m = 8, total = k * n * m;
  auto x = random_cvec(total, 5003);
  DualSocketFft3d plan(k, n, m, Direction::Forward, ds_opts(4), 2);
  cvec in = x, out(x.size());
  plan.execute(in.data(), out.data());
  const std::size_t bytes = plan.traffic().write_bytes();
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(bytes, static_cast<std::size_t>(total) * sizeof(cplx));
  // Exactly half of each of the two exchange stages crosses for sk=2:
  // 2 stages * N/2 elements = N elements.
}

TEST(DualSocket, PacketAndStoreVariantsAgree) {
  const idx_t k = 8, n = 8, m = 8, total = k * n * m;
  auto x = random_cvec(total, 5004);
  DualSocketFft3d base(k, n, m, Direction::Forward, ds_opts(4), 2);
  cvec in = x, want(x.size());
  base.execute(in.data(), want.data());

  for (idx_t mu : {idx_t{1}, idx_t{2}}) {
    FftOptions o = ds_opts(4);
    o.packet_elems = mu;
    DualSocketFft3d plan(k, n, m, Direction::Forward, o, 2);
    cvec in2 = x, got(x.size());
    plan.execute(in2.data(), got.data());
    EXPECT_LT(max_err(want, got), 1e-12) << "mu=" << mu;
  }
  {
    FftOptions o = ds_opts(4);
    o.nontemporal = false;
    DualSocketFft3d plan(k, n, m, Direction::Forward, o, 2);
    cvec in2 = x, got(x.size());
    plan.execute(in2.data(), got.data());
    EXPECT_LT(max_err(want, got), 1e-12) << "temporal";
  }
}

TEST(DualSocket, FourSockets) {
  const idx_t k = 8, n = 8, m = 8;
  auto x = random_cvec(k * n * m, 5005);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
  DualSocketFft3d plan(k, n, m, Direction::Forward, ds_opts(4), 4);
  cvec in = x, got(x.size());
  plan.execute(in.data(), got.data());
  EXPECT_LT(max_err(want, got), fft_tol(512.0));
  // sk=4: each exchange stage keeps 1/4 local => 2 * (3/4) N crosses.
  EXPECT_EQ(static_cast<std::size_t>(2 * (k * n * m) * 3 / 4) * sizeof(cplx),
            plan.traffic().write_bytes());
}

TEST(DualSocket, EverySocketRunsTheTableIISchedule) {
  // Each socket's stages run the shared pipeline loop on the socket's own
  // roles, buffer and barrier: threads 2 gives one thread per socket (the
  // Private schedule), threads 6 three (Table II with data threads: p_c
  // is pinned to one per socket, since the 3D plan rule's default is
  // Private).
  const idx_t k = 16, n = 16, m = 16, total = k * n * m;
  auto x = random_cvec(total, 5006);
  cvec want(x.size());
  reference_dft_3d(x.data(), want.data(), k, n, m, Direction::Forward);
  for (int threads : {2, 6}) {
    FftOptions o = ds_opts(threads);
    o.compute_threads = 1;
    DualSocketFft3d plan(k, n, m, Direction::Forward, o, 2);
    EXPECT_EQ(threads == 2 ? 0 : 2, plan.socket_roles().data);
    std::array<DualSocketFft3d::Trace, 3> traces;
    plan.set_trace(&traces);
    cvec in = x, got(x.size());
    plan.execute(in.data(), got.data());
    EXPECT_LT(max_err(want, got), fft_tol(static_cast<double>(total)))
        << "threads=" << threads;
    for (int stage = 0; stage < 3; ++stage) {
      EXPECT_GT(plan.iterations(stage), 1);
      for (int s = 0; s < plan.sockets(); ++s) {
        DualSocketFft3d::Trace socket_trace;
        for (const auto& ev : traces[static_cast<std::size_t>(stage)]) {
          if (ev.group == s) socket_trace.push_back(ev);
        }
        const auto rep = analysis::verify_schedule_symbolic(
            socket_trace, plan.iterations(stage), plan.socket_roles());
        EXPECT_TRUE(rep.clean()) << "threads=" << threads << " stage="
                                 << stage << " socket=" << s << "\n"
                                 << rep.str();
      }
    }
  }
}

TEST(DualSocket, RejectsIndivisibleShapes) {
  EXPECT_THROW(DualSocketFft3d(3, 4, 4, Direction::Forward, ds_opts(2), 2),
               Error);
  EXPECT_THROW(DualSocketFft3d(4, 3, 4, Direction::Forward, ds_opts(2), 2),
               Error);
}

// The symbolic model of the socket plan (analysis::build_plan_model):
// each socket reads its own slab and its stores go through the plan's row
// maps. Every shape's sk = 2 and sk = 4 plan (where 4 divides k and n)
// proves clean, and the stores the model places outside the storing
// socket's slab are exactly the bytes a real run counts on the link. A
// thread count sk does not divide is refused rather than cut; the model
// then runs on the largest multiple of sk below it (at least sk).
TEST_P(DualSocketCases, StaticModelIsCleanAndPredictsLinkTraffic) {
  const auto [k, n, m, threads] = GetParam();
  auto x = random_cvec(k * n * m, 5007);
  for (int sk : {2, 4}) {
    if (k % sk != 0 || n % sk != 0) continue;
    int team = threads;
    if (team % sk != 0) {
      EXPECT_THROW(make_stage_plan({k, n, m}, ds_opts(team), sk), Error);
      team = sk * std::max(1, team / sk);
    }
    DualSocketFft3d plan(k, n, m, Direction::Forward, ds_opts(team), sk);
    const analysis::PlanModel model = analysis::build_plan_model(plan.plan());
    const analysis::StaticReport rep = analysis::verify_plan(model);
    EXPECT_TRUE(rep.ok()) << rep.str();
    idx_t off_slab = 0;
    for (const auto& st : model.stages) off_slab += st.off_slab_elems;

    cvec in = x, out(x.size());
    plan.execute(in.data(), out.data());
    EXPECT_EQ(static_cast<std::size_t>(off_slab) * sizeof(cplx),
              plan.traffic().write_bytes())
        << model.label();
  }
}

// A seeded defect: stage-1 stores that drop the socket's s*k/sk row
// offset land on socket 0's rows, which the model proves overlapping.
TEST(DualSocket, StaticModelCatchesAStage1StoreWithoutItsSocketOffset) {
  const idx_t k = 8, n = 8, m = 8;
  FftOptions o = ds_opts(4);
  o.packet_elems = 2;
  const StagePlan plan = make_stage_plan({k, n, m}, o, 2);
  analysis::PlanModel model = analysis::build_plan_model(plan);
  ASSERT_TRUE(analysis::verify_plan(model).ok());
  analysis::StageModel& st = model.stages[1];
  const int ranks = st.parts / plan.sockets;  // one socket group's ranks
  for (auto& w : st.stores) {
    const int socket = (w.owner % st.parts) / ranks;
    w.iv.begin -= socket * (k / plan.sockets) * plan.mu;
  }
  const analysis::StaticReport rep = analysis::verify_plan(model);
  ASSERT_FALSE(rep.ok());
  using Kind = analysis::StaticIssue::Kind;
  bool overlap = false;
  for (const auto& i : rep.issues) {
    overlap = overlap || i.kind == Kind::PartitionOverlap;
  }
  EXPECT_TRUE(overlap) << rep.str();
}

}  // namespace
}  // namespace bwfft
