// Tests for the symbolic plan verifier (src/analysis/static_verify) and
// the interval algebra underneath it (src/common/intervals).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/static_verify.h"
#include "common/intervals.h"
#include "fft/options.h"

namespace bwfft {
namespace {

using analysis::PlanModel;
using analysis::StageModel;
using analysis::StaticIssue;
using analysis::StaticReport;

// ---------------------------------------------------------------------------
// Interval algebra.
// ---------------------------------------------------------------------------

TEST(Intervals, ContiguousPartitionCovers) {
  std::vector<OwnedWindow> w = {
      {0, StridedInterval::contiguous(0, 10)},
      {1, StridedInterval::contiguous(10, 30)},
      {2, StridedInterval::contiguous(40, 60)},
  };
  const PartitionReport rep = check_partition(w, 100, true);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_EQ(rep.covered, 100);
}

TEST(Intervals, OverlapDetected) {
  std::vector<OwnedWindow> w = {
      {0, StridedInterval::contiguous(0, 60)},
      {1, StridedInterval::contiguous(50, 50)},
  };
  const PartitionReport rep = check_partition(w, 100, true);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.issues.front().kind, IntervalIssue::Kind::Overlap);
  EXPECT_EQ(rep.issues.front().begin, 50);
  EXPECT_EQ(rep.issues.front().end, 60);
}

TEST(Intervals, GapDetected) {
  std::vector<OwnedWindow> w = {
      {0, StridedInterval::contiguous(0, 40)},
      {1, StridedInterval::contiguous(60, 40)},
  };
  const PartitionReport rep = check_partition(w, 100, true);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.issues.front().kind, IntervalIssue::Kind::Gap);
  EXPECT_EQ(rep.covered, 80);
}

TEST(Intervals, GapIgnoredWithoutCoverRequirement) {
  std::vector<OwnedWindow> w = {
      {0, StridedInterval::contiguous(0, 40)},
      {1, StridedInterval::contiguous(60, 40)},
  };
  EXPECT_TRUE(check_partition(w, 100, false).ok());
}

TEST(Intervals, OutOfBoundsDetected) {
  std::vector<OwnedWindow> w = {
      {0, StridedInterval::contiguous(0, 100)},
      {1, StridedInterval::contiguous(100, 8)},
  };
  const PartitionReport rep = check_partition(w, 100, true);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.issues.front().kind, IntervalIssue::Kind::OutOfBounds);
}

TEST(Intervals, StridedWindowsTile) {
  // Two ranks interleave rows of a 4 x 10 matrix: rank r owns rows
  // r, r+2 (runs of width 10, stride 20).
  std::vector<OwnedWindow> w = {
      {0, {0, 10, 20, 2}},
      {1, {10, 10, 20, 2}},
  };
  const PartitionReport rep = check_partition(w, 40, true);
  EXPECT_TRUE(rep.ok()) << rep.str();
}

TEST(Intervals, SelfOverlappingRunRejected) {
  // stride < width: consecutive runs of one window collide with
  // themselves before any pairwise check.
  std::vector<OwnedWindow> w = {{0, {0, 10, 5, 2}}};
  const PartitionReport rep = check_partition(w, 20, false);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.issues.front().kind, IntervalIssue::Kind::Overlap);
}

TEST(Intervals, IssueListIsCapped) {
  // 64 one-element windows, every second one missing: > 32 gaps must not
  // produce an unbounded issue list.
  std::vector<OwnedWindow> w;
  for (int i = 0; i < 64; ++i) {
    w.push_back({i, StridedInterval::contiguous(2 * i, 1)});
  }
  const PartitionReport rep = check_partition(w, 128, true);
  EXPECT_FALSE(rep.ok());
  EXPECT_LE(rep.issues.size(), 32u);
}

TEST(Intervals, StridePermBijection) {
  EXPECT_TRUE(stride_perm_is_bijection(12, 3));
  EXPECT_TRUE(stride_perm_is_bijection(64, 8));
  EXPECT_TRUE(stride_perm_is_bijection(1, 1));
  EXPECT_TRUE(stride_perm_is_bijection(7, 7));
  EXPECT_FALSE(stride_perm_is_bijection(12, 5));  // sub does not divide
  EXPECT_FALSE(stride_perm_is_bijection(0, 1));
  EXPECT_FALSE(stride_perm_is_bijection(12, 0));
}

// ---------------------------------------------------------------------------
// Engine models across the grid.
// ---------------------------------------------------------------------------

FftOptions opts_for(EngineKind engine, int threads) {
  FftOptions o;
  o.engine = engine;
  o.threads = threads;
  return o;
}

void expect_clean(const std::vector<idx_t>& dims, const FftOptions& opts) {
  PlanModel model;
  std::string why;
  ASSERT_TRUE(analysis::build_plan_model(dims, opts, &model, &why)) << why;
  const StaticReport rep = analysis::verify_plan(model);
  EXPECT_TRUE(rep.ok()) << rep.str();
  EXPECT_GT(rep.checks, 0u);
}

TEST(StaticVerify, EnginesCleanOnRepresentativeShapes) {
  for (const auto& dims : std::vector<std::vector<idx_t>>{
           {64, 64, 64}, {32, 64, 128}, {256, 256}}) {
    for (EngineKind e : {EngineKind::DoubleBuffer, EngineKind::StageParallel,
                         EngineKind::Pencil}) {
      expect_clean(dims, opts_for(e, 8));
    }
    if (dims.size() == 3) {
      expect_clean(dims, opts_for(EngineKind::SlabPencil, 8));
    }
  }
  // 1D: the double-buffer engine's four-step passes (two stages) and its
  // flat fallback (4099 is prime); stage-parallel is the one Flat stage
  // at every size; the naive DIT has no model.
  for (idx_t n : {idx_t{1} << 12, idx_t{3} << 10, idx_t{4099}}) {
    expect_clean({n}, opts_for(EngineKind::DoubleBuffer, 8));
    expect_clean({n}, opts_for(EngineKind::StageParallel, 8));
    PlanModel model;
    std::string why;
    ASSERT_TRUE(analysis::build_plan_model(
        {n}, opts_for(EngineKind::DoubleBuffer, 8), &model, &why));
    EXPECT_EQ(n == 4099 ? 1u : 2u, model.stages.size());
    ASSERT_TRUE(analysis::build_plan_model(
        {n}, opts_for(EngineKind::StageParallel, 8), &model, &why));
    ASSERT_EQ(1u, model.stages.size());
    EXPECT_EQ(std::string("flat"), model.stages[0].name);
    EXPECT_FALSE(analysis::build_plan_model(
        {n}, opts_for(EngineKind::Pencil, 8), &model, &why));
  }
}

TEST(StaticVerify, NonPowerOfTwoShapeSkipsPencilOnly) {
  const std::vector<idx_t> dims = {48, 48, 48};
  PlanModel model;
  std::string why;
  EXPECT_FALSE(analysis::build_plan_model(
      dims, opts_for(EngineKind::Pencil, 8), &model, &why));
  EXPECT_FALSE(why.empty());
  expect_clean(dims, opts_for(EngineKind::DoubleBuffer, 8));
  expect_clean(dims, opts_for(EngineKind::StageParallel, 8));
}

TEST(StaticVerify, DegenerateUnitAxis) {
  // n = 1 axes collapse stages to single-row tiles; the partition proofs
  // must still hold.
  expect_clean({1, 64, 64}, opts_for(EngineKind::DoubleBuffer, 8));
  expect_clean({64, 1, 64}, opts_for(EngineKind::StageParallel, 8));
  expect_clean({1, 256}, opts_for(EngineKind::DoubleBuffer, 8));
}

TEST(StaticVerify, NonPowerOfTwoBlock) {
  FftOptions o = opts_for(EngineKind::DoubleBuffer, 8);
  o.block_elems = 3000;  // not a multiple of anything convenient
  expect_clean({64, 64, 64}, o);
  o.block_elems = 1;  // degenerates to one row per block
  expect_clean({32, 32, 32}, o);
}

TEST(StaticVerify, SingleThread) {
  // p = 1: no data threads, sequential schedule, one rank owns
  // everything.
  for (EngineKind e : {EngineKind::DoubleBuffer, EngineKind::StageParallel,
                       EngineKind::Pencil}) {
    expect_clean({32, 32, 32}, opts_for(e, 1));
    expect_clean({64, 64}, opts_for(e, 1));
  }
}

TEST(StaticVerify, AllComputeSplitIsUnpipelined) {
  FftOptions o = opts_for(EngineKind::DoubleBuffer, 8);
  o.compute_threads = 8;  // p_d = 0: degraded sequential schedule
  PlanModel model;
  std::string why;
  ASSERT_TRUE(analysis::build_plan_model({64, 64, 64}, o, &model, &why))
      << why;
  EXPECT_EQ(model.data_threads, 0);
  for (const auto& st : model.stages) EXPECT_FALSE(st.pipelined);
  EXPECT_TRUE(analysis::verify_plan(model).ok());
}

TEST(StaticVerify, PrivateModelCarriesEveryRanksBufferSlice) {
  // The 3D default at p = 8 is Private: no Table II overlap, but every
  // claim owns one buffer window that it loads and stores.
  PlanModel model;
  std::string why;
  ASSERT_TRUE(analysis::build_plan_model(
      {64, 64, 64}, opts_for(EngineKind::DoubleBuffer, 8), &model, &why))
      << why;
  EXPECT_EQ(0, model.data_threads);
  for (const auto& st : model.stages) {
    EXPECT_FALSE(st.pipelined);
    EXPECT_EQ(st.buf_loads.size(), st.buf_stores.size());
    EXPECT_GE(st.buf_loads.size(), 2u);
  }
  EXPECT_TRUE(analysis::verify_plan(model).ok());
}

// ---------------------------------------------------------------------------
// Seeded defects must be rejected.
// ---------------------------------------------------------------------------

PlanModel valid_model() {
  PlanModel model;
  std::string why;
  FftOptions o = opts_for(EngineKind::DoubleBuffer, 8);
  // A one-cacheline packet keeps several packets per stage-0 row (the
  // auto packet at 64^3 is the whole row), so a store window can shrink
  // without vanishing. The even Split keeps the Table II epoch windows
  // (the 3D default is Private).
  o.packet_elems = kMu;
  o.compute_threads = 4;
  EXPECT_TRUE(analysis::build_plan_model({64, 64, 64}, o, &model, &why))
      << why;
  return model;
}

bool has_issue(const StaticReport& rep, StaticIssue::Kind kind) {
  for (const auto& i : rep.issues) {
    if (i.kind == kind) return true;
  }
  return false;
}

TEST(StaticVerify, SeededOverlapRejected) {
  PlanModel model = valid_model();
  ASSERT_GE(model.stages.front().stores.size(), 2u);
  model.stages.front().stores[1].iv = model.stages.front().stores[0].iv;
  const StaticReport rep = analysis::verify_plan(model);
  EXPECT_TRUE(has_issue(rep, StaticIssue::Kind::PartitionOverlap))
      << rep.str();
  EXPECT_TRUE(has_issue(rep, StaticIssue::Kind::PartitionGap));
}

TEST(StaticVerify, SeededGapRejected) {
  PlanModel model = valid_model();
  model.stages.front().stores.pop_back();
  const StaticReport rep = analysis::verify_plan(model);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_issue(rep, StaticIssue::Kind::PartitionGap) ||
              has_issue(rep, StaticIssue::Kind::NotConservative))
      << rep.str();
}

TEST(StaticVerify, SeededMissingFenceRejected) {
  PlanModel model = valid_model();
  StageModel* nt = nullptr;
  for (auto& st : model.stages) {
    if (st.nt_store) nt = &st;
  }
  ASSERT_NE(nt, nullptr) << "expected an NT-store stage in the DB model";
  nt->fence_before_publish = false;
  EXPECT_TRUE(has_issue(analysis::verify_plan(model),
                        StaticIssue::Kind::MissingFence));
}

TEST(StaticVerify, SeededEpochAliasRejected) {
  PlanModel model = valid_model();
  StageModel* piped = nullptr;
  for (auto& st : model.stages) {
    if (st.pipelined && st.buf_loads.size() >= 2) piped = &st;
  }
  ASSERT_NE(piped, nullptr) << "expected a pipelined stage with >= 2 ranks";
  piped->buf_loads[1].iv = piped->buf_stores[0].iv;
  EXPECT_TRUE(has_issue(analysis::verify_plan(model),
                        StaticIssue::Kind::EpochAlias));
}

TEST(StaticVerify, SeededPrivateSliceStealRejected) {
  // Claim 1 of a Private plan loads claim 0's buffer window.
  PlanModel model;
  std::string why;
  ASSERT_TRUE(analysis::build_plan_model(
      {64, 64, 64}, opts_for(EngineKind::DoubleBuffer, 8), &model, &why))
      << why;
  auto& st = model.stages.front();
  ASSERT_GE(st.buf_loads.size(), 2u);
  st.buf_loads[1].iv = st.buf_loads[0].iv;
  const StaticReport rep = analysis::verify_plan(model);
  EXPECT_TRUE(has_issue(rep, StaticIssue::Kind::SliceOwnership)) << rep.str();
  EXPECT_TRUE(has_issue(rep, StaticIssue::Kind::EpochAlias));
}

TEST(StaticVerify, SeededShortfallRejected) {
  // Shrinking one store window breaks conservation even where it leaves
  // no per-element gap a sweep in isolation would see (the counts check
  // is the backstop).
  PlanModel model = valid_model();
  auto& iv = model.stages.front().stores.back().iv;
  ASSERT_GT(iv.count, 1);
  iv.count -= 1;
  const StaticReport rep = analysis::verify_plan(model);
  EXPECT_FALSE(rep.ok());
}

}  // namespace
}  // namespace bwfft
