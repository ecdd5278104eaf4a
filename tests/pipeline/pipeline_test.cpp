// Tests for the double-buffer software pipeline: data integrity under the
// Table II schedule, schedule-shape validation (prologue/steady/epilogue),
// equivalence of the Split and Private schedules, and role handling.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>

#include "analysis/hazard_checker.h"
#include "analysis/static_verify.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "pipeline/pipeline.h"
#include "../test_util.h"

namespace bwfft {
namespace {

using test::max_err;
using Kind = DoubleBufferPipeline::TraceEvent::Kind;

/// A stage that loads blocks of `block` elements from `src`, multiplies
/// by 2, and stores to `dst` — simple enough to verify exactly, shaped
/// like the real FFT stages (block load / in-place compute / store).
struct CopyStageFixture {
  cvec src, dst;
  idx_t block;
  PipelineStage stage;

  CopyStageFixture(idx_t total, idx_t block_elems)
      : src(random_cvec(total, 1234)),
        dst(static_cast<std::size_t>(total), cplx(0, 0)),
        block(block_elems) {
    stage.iterations = total / block;
    stage.load = [this](idx_t i, cplx* buf, int rank, int parts) {
      auto [b, e] = ThreadTeam::chunk(block, parts, rank);
      std::memcpy(buf + b, src.data() + i * block + b,
                  static_cast<std::size_t>(e - b) * sizeof(cplx));
    };
    stage.compute = [this](idx_t, cplx* buf, int rank, int parts) {
      auto [b, e] = ThreadTeam::chunk(block, parts, rank);
      for (idx_t j = b; j < e; ++j) buf[j] *= 2.0;
    };
    stage.store = [this](idx_t i, const cplx* buf, int rank, int parts) {
      auto [b, e] = ThreadTeam::chunk(block, parts, rank);
      std::memcpy(dst.data() + i * block + b, buf + b,
                  static_cast<std::size_t>(e - b) * sizeof(cplx));
    };
  }

  void expect_correct() const {
    for (std::size_t j = 0; j < src.size(); ++j) {
      ASSERT_EQ(src[j] * 2.0, dst[j]) << "element " << j;
    }
  }
};

class PipelineThreads : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelineThreads, DataIntegrityAcrossRoleSplits) {
  const auto [threads, compute] = GetParam();
  ThreadTeam team(threads);
  RolePlan roles = make_role_plan(threads, compute, host_topology());
  DoubleBufferPipeline pipe(team, roles, 64);
  CopyStageFixture fx(1024, 64);
  pipe.execute(fx.stage);
  fx.expect_correct();
}

INSTANTIATE_TEST_SUITE_P(RoleSplits, PipelineThreads,
                         ::testing::Values(std::tuple<int, int>{1, 1},
                                           std::tuple<int, int>{2, 1},
                                           std::tuple<int, int>{4, 2},
                                           std::tuple<int, int>{4, 3},
                                           std::tuple<int, int>{4, 1},
                                           std::tuple<int, int>{6, 3},
                                           std::tuple<int, int>{3, 3},
                                           std::tuple<int, int>{2, 2}));

TEST(Pipeline, UnpipelinedMatchesPipelined) {
  // The Table II overlap (Split) and the Private claims only order the
  // same tasks differently: one stage gives bitwise equal outputs.
  ThreadTeam team(4);
  DoubleBufferPipeline split(team, make_role_plan(4, 2, host_topology()), 32);
  DoubleBufferPipeline priv(team, make_role_plan(4, 4, host_topology()), 32);

  CopyStageFixture a(512, 32);
  split.execute(a.stage);
  CopyStageFixture b(512, 32);
  priv.execute(b.stage);
  EXPECT_EQ(0.0, max_err(a.dst, b.dst));
  a.expect_correct();
  b.expect_correct();
}

TEST(Pipeline, SingleIterationDegenerate) {
  ThreadTeam team(2);
  RolePlan roles = make_role_plan(2, 1, host_topology());
  DoubleBufferPipeline pipe(team, roles, 128);
  CopyStageFixture fx(128, 128);  // exactly one block
  pipe.execute(fx.stage);
  fx.expect_correct();
}

// Validate the Table II schedule: with one data and one compute thread,
// the trace must show the prologue (loads 0,1 before any store), steady
// state (store i-2 with load i at the same step), and epilogue.
TEST(Pipeline, TraceMatchesTableII) {
  ThreadTeam team(2);
  RolePlan roles = make_role_plan(2, 1, host_topology());
  DoubleBufferPipeline pipe(team, roles, 16);
  CopyStageFixture fx(16 * 6, 16);  // 6 iterations
  std::vector<DoubleBufferPipeline::TraceEvent> trace;
  pipe.set_trace(&trace);
  pipe.execute(fx.stage);
  pipe.set_trace(nullptr);
  fx.expect_correct();

  std::map<idx_t, std::vector<std::pair<Kind, idx_t>>> by_step;
  for (const auto& ev : trace) by_step[ev.step].push_back({ev.kind, ev.iter});

  const idx_t iters = 6;
  for (idx_t step = 0; step < iters + 2; ++step) {
    ASSERT_TRUE(by_step.count(step)) << "no events at step " << step;
    bool has_load = false, has_store = false, has_compute = false;
    for (auto [kind, iter] : by_step[step]) {
      if (kind == Kind::Load) {
        has_load = true;
        EXPECT_EQ(step, iter);
      }
      if (kind == Kind::Store) {
        has_store = true;
        EXPECT_EQ(step - 2, iter);
      }
      if (kind == Kind::Compute) {
        has_compute = true;
        EXPECT_EQ(step - 1, iter);
      }
    }
    EXPECT_EQ(step < iters, has_load) << "step " << step;          // prologue+steady
    EXPECT_EQ(step >= 2, has_store) << "step " << step;            // steady+epilogue
    EXPECT_EQ(step >= 1 && step <= iters, has_compute) << "step " << step;
  }

  // Halves alternate: load of iteration i uses half i mod 2.
  for (const auto& ev : trace) {
    if (ev.kind == Kind::Load || ev.kind == Kind::Store) {
      EXPECT_EQ(static_cast<int>(ev.iter % 2), ev.half);
    } else {
      EXPECT_EQ(static_cast<int>(ev.iter % 2), ev.half);
    }
  }
}

// Validate the Private schedule (p_d = 0): every claim runs exactly once,
// its L(i), C(i), S(i) back to back at step i on the tile of the one
// thread that claimed it — and the symbolic checker accepts the recorded
// trace.
TEST(Pipeline, TraceMatchesPrivate) {
  ThreadTeam team(4);
  RolePlan roles = make_role_plan(4, 4, host_topology());
  ASSERT_EQ(0, roles.data);
  DoubleBufferPipeline pipe(team, roles, 64);
  const idx_t iters = 6;
  CopyStageFixture fx(64 * iters, 64);
  std::vector<DoubleBufferPipeline::TraceEvent> trace;
  pipe.set_trace(&trace);
  pipe.execute(fx.stage);
  pipe.set_trace(nullptr);
  fx.expect_correct();

  std::map<int, std::vector<DoubleBufferPipeline::TraceEvent>> by_tid;
  for (const auto& ev : trace) by_tid[ev.tid].push_back(ev);
  const Kind order[3] = {Kind::Load, Kind::Compute, Kind::Store};
  std::map<idx_t, int> runs;  // claim -> times loaded
  for (const auto& [tid, evs] : by_tid) {
    ASSERT_EQ(0u, evs.size() % 3) << tid;
    for (std::size_t j = 0; j < evs.size(); ++j) {
      const idx_t claim = evs[j - j % 3].iter;
      EXPECT_EQ(order[j % 3], evs[j].kind) << "tid " << tid << " event " << j;
      EXPECT_EQ(claim, evs[j].iter);
      EXPECT_EQ(claim, evs[j].step);
      EXPECT_EQ(tid, evs[j].half) << "a claim runs on its thread's tile";
      if (evs[j].kind == Kind::Load) ++runs[claim];
    }
  }
  ASSERT_EQ(static_cast<std::size_t>(iters), runs.size());
  for (const auto& [claim, n] : runs) EXPECT_EQ(1, n) << "claim " << claim;
  EXPECT_TRUE(analysis::verify_schedule_symbolic(trace, iters, roles).clean());
  const auto& u = pipe.last_utilization();
  EXPECT_LE(u.min_claims, u.max_claims);
  EXPECT_GE(u.max_claims, 2) << "6 claims over 4 threads";
}

// Claims are handed out dynamically: a thread held up on its first claim
// leaves every other claim to its mate.
TEST(Pipeline, PrivateClaimsBalanceAroundASlowThread) {
  ThreadTeam team(2);
  DoubleBufferPipeline pipe(team, make_role_plan(2, 2, host_topology()), 16);
  const idx_t iters = 16;
  CopyStageFixture fx(16 * iters, 16);
  std::atomic<idx_t> stored{0};
  const auto compute = fx.stage.compute;
  const auto store = fx.stage.store;
  fx.stage.compute = [&](idx_t i, cplx* buf, int rank, int parts) {
    // Claim 0 waits until the mate has stored every other claim.
    while (i == 0 && stored.load() < iters - 1) std::this_thread::yield();
    compute(i, buf, rank, parts);
  };
  fx.stage.store = [&](idx_t i, const cplx* buf, int rank, int parts) {
    store(i, buf, rank, parts);
    if (i != 0) ++stored;
  };
  std::vector<DoubleBufferPipeline::TraceEvent> trace;
  pipe.set_trace(&trace);
  pipe.execute(fx.stage);
  pipe.set_trace(nullptr);
  fx.expect_correct();
  EXPECT_TRUE(analysis::audit_schedule(trace, iters, pipe.roles()).clean());
  const auto& u = pipe.last_utilization();
  EXPECT_EQ(1, u.min_claims);
  EXPECT_EQ(iters - 1, u.max_claims);
}

// A Private run still reports the load/compute/store split, and its only
// barrier is the one at the end of the stage: one wait per thread.
TEST(Pipeline, PrivateReportsBusyTimeAndOneBarrierPerThread) {
  ThreadTeam team(4);
  DoubleBufferPipeline pipe(team, make_role_plan(4, 4, host_topology()), 64);
  CopyStageFixture fx(64 * 8, 64);
  obs::reset_counters();
  obs::start_trace();
  pipe.execute(fx.stage);
  obs::stop_trace();
  fx.expect_correct();
  const auto& u = pipe.last_utilization();
  EXPECT_GT(u.load_seconds, 0.0);
  EXPECT_GT(u.compute_seconds, 0.0);
  EXPECT_GT(u.store_seconds, 0.0);
#if defined(BWFFT_OBS)
  EXPECT_GT(obs::counter_total(obs::Counter::LoadBusyNs), 0u);
  EXPECT_GT(obs::counter_total(obs::Counter::ComputeBusyNs), 0u);
  EXPECT_GT(obs::counter_total(obs::Counter::StoreBusyNs), 0u);
  std::map<int, int> waits;
  for (const obs::Slice& s : obs::drain_trace()) {
    if (s.phase == 'B') ++waits[s.tid];
  }
  EXPECT_EQ(4u, waits.size());
  for (const auto& [tid, n] : waits) EXPECT_EQ(1, n) << "obs tid " << tid;
#endif
}

TEST(Pipeline, ManyIterationsStress) {
  ThreadTeam team(4);
  RolePlan roles = make_role_plan(4, 2, host_topology());
  DoubleBufferPipeline pipe(team, roles, 8);
  CopyStageFixture fx(8 * 200, 8);  // 200 iterations
  pipe.execute(fx.stage);
  fx.expect_correct();
}

TEST(Pipeline, UtilizationCollection) {
  ThreadTeam team(2);
  RolePlan roles = make_role_plan(2, 1, host_topology());
  DoubleBufferPipeline pipe(team, roles, 64);
  CopyStageFixture fx(1024, 64);
  pipe.execute(fx.stage);
  fx.expect_correct();
  const auto& u = pipe.last_utilization();
  EXPECT_GT(u.wall_seconds, 0.0);
  EXPECT_GT(u.load_seconds, 0.0);
  EXPECT_GT(u.store_seconds, 0.0);
  EXPECT_GT(u.compute_seconds, 0.0);
  // Busy time per role cannot exceed its group's wall-clock allocation
  // (1 thread per role here).
  EXPECT_LE(u.load_seconds + u.store_seconds, u.wall_seconds * 1.5);
  EXPECT_LE(u.compute_seconds, u.wall_seconds * 1.5);
}

TEST(Pipeline, GroupsRunTheirOwnStagesAndDrainOnThrow) {
  // A team split into two groups (the dual-socket layout) runs one stage
  // per group. A task that throws in one group drains that group's mates
  // at its barrier instead of deadlocking, the original error surfaces
  // rather than the mates' abort diagnoses, and the pipeline stays usable.
  ThreadTeam team(4);
  DoubleBufferPipeline pipe(team, make_role_plan(2, 1, host_topology()), 16,
                            2);
  CopyStageFixture a(16 * 6, 16), b(16 * 6, 16);
  std::vector<PipelineStage> stages = {a.stage, b.stage};
  stages[1].load = [](idx_t i, cplx*, int, int) {
    if (i == 2) throw Error(ErrorCode::kAllocFailed, "injected load failure");
  };
  try {
    pipe.execute(stages);
    ADD_FAILURE() << "the throwing group's error was swallowed";
  } catch (const Error& e) {
    EXPECT_EQ(ErrorCode::kAllocFailed, e.code()) << e.what();
  }
  a.expect_correct();  // the other group finished its stage

  CopyStageFixture c(16 * 6, 16), d(16 * 4, 16);
  pipe.execute({c.stage, d.stage});
  c.expect_correct();
  d.expect_correct();
}

TEST(Pipeline, RejectsEmptyStage) {
  ThreadTeam team(2);
  RolePlan roles = make_role_plan(2, 1, host_topology());
  DoubleBufferPipeline pipe(team, roles, 8);
  PipelineStage s;
  s.iterations = 0;
  EXPECT_THROW(pipe.execute(s), Error);
}

TEST(Pipeline, DefaultBlockPolicyIsQuarterLlc) {
  MachineTopology t = machines::kabylake_7700k();  // 8 MiB LLC
  // Buffer = LLC/2 split into two halves => per-half block = LLC/4.
  EXPECT_EQ(static_cast<idx_t>((8u << 20) / 4 / sizeof(cplx)),
            default_block_elems(t));
}

}  // namespace
}  // namespace bwfft
