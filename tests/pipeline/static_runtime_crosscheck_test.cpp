// Cross-check of the symbolic schedule verifier against the PR-1 runtime
// hazard checker: on identical traces the two must agree — both clean on
// the canonical Table II trace (and on the trace of a REAL pipeline
// execution), both dirty on every corruption. A disagreement means one of
// the two models of the schedule has drifted from the other.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/hazard_checker.h"
#include "analysis/static_verify.h"
#include "common/rng.h"
#include "common/topology.h"
#include "parallel/roles.h"
#include "parallel/team.h"
#include "pipeline/pipeline.h"

namespace bwfft {
namespace {

using analysis::Trace;

RolePlan roles_for(int total, int compute) {
  return make_role_plan(total, compute, host_topology());
}

void expect_both_clean(const Trace& trace, idx_t iters,
                       const RolePlan& roles) {
  const auto sym = analysis::verify_schedule_symbolic(trace, iters, roles);
  const auto dyn = analysis::audit_schedule(trace, iters, roles);
  EXPECT_TRUE(sym.clean()) << "symbolic: " << sym.str();
  EXPECT_TRUE(dyn.clean()) << "runtime: " << dyn.str();
}

void expect_both_dirty(const Trace& trace, idx_t iters,
                       const RolePlan& roles) {
  EXPECT_FALSE(
      analysis::verify_schedule_symbolic(trace, iters, roles).clean());
  EXPECT_FALSE(analysis::audit_schedule(trace, iters, roles).clean());
}

TEST(CrossCheck, CanonicalTracesAgreeClean) {
  for (int threads : {2, 4, 8}) {
    for (int compute : {threads / 2, threads - 1, threads}) {
      if (compute < 1) continue;
      const RolePlan roles = roles_for(threads, compute);
      for (idx_t iters : {idx_t{1}, idx_t{2}, idx_t{6}}) {
        const Trace trace = analysis::make_table2_trace(iters, roles);
        expect_both_clean(trace, iters, roles);
      }
    }
  }
}

TEST(CrossCheck, DegradedSequentialScheduleAgrees) {
  // compute == total leaves no data threads: the degraded sequential
  // schedule, which both checkers must also accept.
  const RolePlan roles = roles_for(4, 4);
  ASSERT_EQ(roles.data, 0);
  for (idx_t iters : {idx_t{1}, idx_t{3}}) {
    expect_both_clean(analysis::make_table2_trace(iters, roles), iters,
                      roles);
  }
}

TEST(CrossCheck, PrivateProgramOrderCorruptionAgrees) {
  // Under Private, one thread storing claim 0 before transforming it
  // keeps every task of every claim present once, on its tile; only the
  // program order L(i) -> C(i) -> S(i) catches it — in both checkers.
  const RolePlan roles = roles_for(4, 4);
  Trace trace = analysis::make_table2_trace(3, roles);
  ASSERT_EQ(DoubleBufferPipeline::TraceEvent::Kind::Compute, trace[1].kind);
  std::swap(trace[1], trace[2]);
  expect_both_dirty(trace, 3, roles);
}

TEST(CrossCheck, FusedClaimTracesAgree) {
  // A fused stage's claims run only the tasks it has: both checkers
  // accept those traces under the stage's fusion, and both reject a trace
  // checked under another fusion (a task missing or one too many), and a
  // fused claim continued on a second thread.
  const RolePlan roles = roles_for(4, 4);
  const Fusion all[] = {Fusion::None, Fusion::Load, Fusion::LoadStore};
  for (Fusion made : all) {
    const Trace trace = analysis::make_table2_trace(5, roles, made);
    for (Fusion checked : all) {
      SCOPED_TRACE(std::string(fusion_name(made)) + " checked as " +
                   fusion_name(checked));
      const auto sym =
          analysis::verify_schedule_symbolic(trace, 5, roles, checked);
      const auto dyn = analysis::audit_schedule(trace, 5, roles, checked);
      EXPECT_EQ(made == checked, sym.clean()) << sym.str();
      EXPECT_EQ(made == checked, dyn.clean()) << dyn.str();
    }
  }
  Trace moved = analysis::make_table2_trace(3, roles, Fusion::Load);
  ASSERT_EQ(DoubleBufferPipeline::TraceEvent::Kind::Store, moved[1].kind);
  moved[1].tid = moved[1].half = 3;  // claim 0's store on another thread
  EXPECT_FALSE(
      analysis::verify_schedule_symbolic(moved, 3, roles, Fusion::Load)
          .clean());
  EXPECT_FALSE(analysis::audit_schedule(moved, 3, roles, Fusion::Load).clean());
}

TEST(CrossCheck, SingleThreadTeamAgrees) {
  const RolePlan roles = roles_for(1, 1);
  expect_both_clean(analysis::make_table2_trace(4, roles), 4, roles);
}

// Every corruption of a valid trace must be rejected by BOTH checkers —
// this is the deliberately-corrupted-schedule case of the cross-check.
class CrossCheckCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    roles_ = roles_for(4, 2);
    ASSERT_GT(roles_.data, 0);
    trace_ = analysis::make_table2_trace(iters_, roles_);
    ASSERT_FALSE(trace_.empty());
  }

  idx_t iters_ = 4;
  RolePlan roles_;
  Trace trace_;
};

TEST_F(CrossCheckCorruption, WrongHalf) {
  trace_.front().half ^= 1;
  expect_both_dirty(trace_, iters_, roles_);
}

TEST_F(CrossCheckCorruption, DuplicateEvent) {
  trace_.push_back(trace_.front());
  expect_both_dirty(trace_, iters_, roles_);
}

TEST_F(CrossCheckCorruption, MissingEvent) {
  trace_.pop_back();
  expect_both_dirty(trace_, iters_, roles_);
}

TEST_F(CrossCheckCorruption, WrongStep) {
  trace_.front().step += 1;
  expect_both_dirty(trace_, iters_, roles_);
}

TEST_F(CrossCheckCorruption, StoreBeforeLoadSwap) {
  // Swap a data thread's store(i-2) with its load(i) inside one step:
  // the S4 retire-before-refill order is violated while every slot stays
  // filled.
  using Kind = DoubleBufferPipeline::TraceEvent::Kind;
  bool swapped = false;
  for (std::size_t i = 0; i + 1 < trace_.size() && !swapped; ++i) {
    auto& a = trace_[i];
    auto& b = trace_[i + 1];
    if (a.kind == Kind::Store && b.kind == Kind::Load && a.tid == b.tid &&
        a.step == b.step) {
      std::swap(a, b);
      swapped = true;
    }
  }
  ASSERT_TRUE(swapped) << "no store/load pair found to swap";
  expect_both_dirty(trace_, iters_, roles_);
}

TEST(CrossCheck, RealPipelineTraceAcceptedBySymbolicChecker) {
  // The strongest agreement statement: the trace of an actual pipelined
  // execution satisfies the symbolic checker, so the static model of the
  // schedule matches what the code really runs.
  const int threads = 4;
  const idx_t block = 256, iters = 5;
  ThreadTeam team(threads);
  const RolePlan roles = roles_for(threads, 2);
  DoubleBufferPipeline pipe(team, roles, block);

  const idx_t total = block * iters;
  cvec src = random_cvec(total, 11);
  cvec dst(static_cast<std::size_t>(total));
  PipelineStage stage;
  stage.iterations = iters;
  stage.load = [&](idx_t i, cplx* buf, int rank, int parts) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank);
    std::memcpy(buf + b, src.data() + i * block + b,
                static_cast<std::size_t>(e - b) * sizeof(cplx));
  };
  stage.compute = [](idx_t, cplx*, int, int) {};
  stage.store = [&](idx_t i, const cplx* buf, int rank, int parts) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank);
    std::memcpy(dst.data() + i * block + b, buf + b,
                static_cast<std::size_t>(e - b) * sizeof(cplx));
  };

  Trace trace;
  pipe.set_trace(&trace);
  pipe.execute(stage);
  pipe.set_trace(nullptr);

  const auto sym = analysis::verify_schedule_symbolic(trace, iters, roles);
  EXPECT_TRUE(sym.clean()) << sym.str();
  const auto dyn = analysis::audit_schedule(trace, iters, roles);
  EXPECT_TRUE(dyn.clean()) << dyn.str();
}

}  // namespace
}  // namespace bwfft
