// Tests for the pipeline hazard checker: a clean bill of health for the
// real Table II schedule, and positive detection of every injected hazard
// class — wrong-half compute, reordered store/load, missing and duplicated
// tasks, overlapping and gappy partitions.
#include <gtest/gtest.h>

#include <cstring>

#include "analysis/hazard_checker.h"
#include "analysis/static_verify.h"
#include "common/rng.h"
#include "pipeline/pipeline.h"
#include "../test_util.h"

namespace bwfft {
namespace {

using analysis::audit_partition;
using analysis::audit_schedule;
using analysis::HazardChecker;
using analysis::HazardReport;
using analysis::HazardViolation;
using analysis::probe_partition;
using analysis::Trace;
using Kind = DoubleBufferPipeline::TraceEvent::Kind;
using VKind = HazardViolation::Kind;

bool has_violation(const HazardReport& rep, VKind kind) {
  for (const auto& v : rep.violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

/// The pipeline_test copy stage: disjoint per-rank chunks, full coverage.
struct CopyStage {
  cvec src, dst;
  idx_t block;
  PipelineStage stage;

  CopyStage(idx_t total, idx_t block_elems)
      : src(random_cvec(total, 99)),
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
};

/// Emit the exact Table II trace one data and one compute thread produce
/// for `iters` iterations (data tid 1, compute tid 0, matching
/// make_role_plan(2, 1, ...)); tests mutate it to inject hazards.
Trace correct_trace(idx_t iters) {
  Trace t;
  for (idx_t step = 0; step < iters + 2; ++step) {
    if (step >= 2) {
      t.push_back({step, Kind::Store, step - 2, static_cast<int>(step % 2), 1});
    }
    if (step < iters) {
      t.push_back({step, Kind::Load, step, static_cast<int>(step % 2), 1});
    }
    if (step >= 1 && step <= iters) {
      t.push_back(
          {step, Kind::Compute, step - 1, static_cast<int>((step + 1) % 2), 0});
    }
  }
  return t;
}

class CheckerRoles : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CheckerRoles, RealPipelineIsClean) {
  const auto [threads, compute] = GetParam();
  ThreadTeam team(threads);
  RolePlan roles = make_role_plan(threads, compute, host_topology());
  DoubleBufferPipeline pipe(team, roles, 64);
  CopyStage fx(1024, 64);

  HazardChecker checker(pipe);
  const HazardReport rep = checker.check(fx.stage);
  EXPECT_TRUE(rep.clean()) << rep.str();
  EXPECT_GT(rep.events, 0u);
  EXPECT_EQ(rep.iterations, 16);
  // The checked run still processed the data exactly once.
  for (std::size_t j = 0; j < fx.src.size(); ++j) {
    ASSERT_EQ(fx.src[j] * 2.0, fx.dst[j]) << "element " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(RoleSplits, CheckerRoles,
                         ::testing::Values(std::tuple<int, int>{2, 1},
                                           std::tuple<int, int>{4, 2},
                                           std::tuple<int, int>{4, 1},
                                           std::tuple<int, int>{1, 1},
                                           std::tuple<int, int>{3, 3}));

TEST(HazardChecker, CorrectSyntheticTraceIsClean) {
  RolePlan roles = make_role_plan(2, 1, host_topology());
  const HazardReport rep = audit_schedule(correct_trace(6), 6, roles);
  EXPECT_TRUE(rep.clean()) << rep.str();
}

TEST(HazardChecker, FlagsWrongHalfCompute) {
  RolePlan roles = make_role_plan(2, 1, host_topology());
  Trace t = correct_trace(6);
  for (auto& ev : t) {
    if (ev.kind == Kind::Compute && ev.step == 3) ev.half ^= 1;  // wrong half
  }
  const HazardReport rep = audit_schedule(t, 6, roles);
  EXPECT_FALSE(rep.clean());
  // Computing on the half being loaded/stored is the headline hazard.
  EXPECT_TRUE(has_violation(rep, VKind::ComputeOverlap)) << rep.str();
  EXPECT_TRUE(has_violation(rep, VKind::WrongHalf)) << rep.str();
}

TEST(HazardChecker, FlagsStoreLoadReordering) {
  RolePlan roles = make_role_plan(2, 1, host_topology());
  Trace t = correct_trace(6);
  // Swap the store/load pair at step 3: the load now precedes the store
  // that was supposed to retire the half.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].step == 3 && t[i].kind == Kind::Store &&
        t[i + 1].kind == Kind::Load) {
      std::swap(t[i], t[i + 1]);
    }
  }
  const HazardReport rep = audit_schedule(t, 6, roles);
  EXPECT_TRUE(has_violation(rep, VKind::StoreLoadOrder)) << rep.str();
}

TEST(HazardChecker, FlagsMissingAndDuplicateTasks) {
  RolePlan roles = make_role_plan(2, 1, host_topology());
  Trace t = correct_trace(6);
  // Delete the load of iteration 4 and run the compute of iteration 2 twice.
  Trace mutated;
  for (const auto& ev : t) {
    if (ev.kind == Kind::Load && ev.iter == 4) continue;
    mutated.push_back(ev);
    if (ev.kind == Kind::Compute && ev.iter == 2) mutated.push_back(ev);
  }
  const HazardReport rep = audit_schedule(mutated, 6, roles);
  EXPECT_TRUE(has_violation(rep, VKind::MissingTask)) << rep.str();
  EXPECT_TRUE(has_violation(rep, VKind::DuplicateTask)) << rep.str();
}

TEST(HazardChecker, FlagsWrongStepAndRole) {
  RolePlan roles = make_role_plan(2, 1, host_topology());
  Trace t = correct_trace(4);
  // A load claiming iteration != step, and a compute by the data thread.
  t.push_back({2, Kind::Load, 3, 0, 1});
  t.push_back({2, Kind::Compute, 1, 1, 1});
  const HazardReport rep = audit_schedule(t, 4, roles);
  EXPECT_TRUE(has_violation(rep, VKind::WrongStep)) << rep.str();
  EXPECT_TRUE(has_violation(rep, VKind::RoleMismatch)) << rep.str();
  EXPECT_TRUE(has_violation(rep, VKind::DuplicateTask)) << rep.str();
}

TEST(HazardChecker, ProbeRecoversDisjointPartitions) {
  const idx_t block = 96;
  auto task = [block](idx_t, cplx* buf, int rank, int parts) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank);
    for (idx_t j = b; j < e; ++j) buf[j] = cplx(1.0, -1.0);
  };
  const auto map = probe_partition(task, 0, block, 3);
  HazardReport rep;
  audit_partition(map, /*require_cover=*/true, "load", rep);
  EXPECT_TRUE(rep.clean()) << rep.str();
  // Each element is owned by exactly the rank chunk() assigns it to.
  for (idx_t e = 0; e < block; ++e) {
    ASSERT_EQ(1u, map.writers[static_cast<std::size_t>(e)].size());
  }
}

TEST(HazardChecker, FlagsOverlappingPartitions) {
  const idx_t block = 64;
  // Buggy load: every rank writes the whole block.
  auto task = [block](idx_t, cplx* buf, int, int) {
    for (idx_t j = 0; j < block; ++j) buf[j] = cplx(2.0, 0.0);
  };
  HazardReport rep;
  audit_partition(probe_partition(task, 0, block, 2), true, "load", rep);
  EXPECT_TRUE(has_violation(rep, VKind::PartitionOverlap)) << rep.str();
}

TEST(HazardChecker, FlagsPartitionGap) {
  const idx_t block = 64;
  // Buggy load: everyone only writes the first half of the block.
  auto task = [block](idx_t, cplx* buf, int rank, int parts) {
    auto [b, e] = ThreadTeam::chunk(block / 2, parts, rank);
    for (idx_t j = b; j < e; ++j) buf[j] = cplx(3.0, 0.0);
  };
  HazardReport rep;
  audit_partition(probe_partition(task, 0, block, 2), true, "load", rep);
  EXPECT_TRUE(has_violation(rep, VKind::PartitionGap)) << rep.str();
  // With coverage not required (tail blocks), the same map is acceptable
  // as long as no element has two writers.
  HazardReport lax;
  audit_partition(probe_partition(task, 0, block, 2), false, "load", lax);
  EXPECT_TRUE(lax.clean()) << lax.str();
}

// End-to-end: an injected partition-overlap bug in a real pipeline run is
// caught by check(), and run_checked() turns it into an Error.
TEST(HazardChecker, DetectsInjectedOverlapBugOnRealPipeline) {
#if defined(BWFFT_TSAN) || defined(__SANITIZE_THREAD__)
  // The injected bug makes both data threads memcpy the same bytes — a
  // genuine data race that TSan reports (correctly) before the checker
  // gets to diagnose it. The probe-based detection is still covered under
  // TSan by FlagsOverlappingPartitions, which never races.
  GTEST_SKIP() << "fault-injection test races by design; skipped under TSan";
#endif
  ThreadTeam team(4);
  RolePlan roles = make_role_plan(4, 2, host_topology());
  DoubleBufferPipeline pipe(team, roles, 64);
  CopyStage fx(512, 64);
  // Break the load: every data thread writes the whole block, ignoring its
  // rank — exactly the "thread writes outside its declared partition" bug.
  fx.stage.load = [&fx](idx_t i, cplx* buf, int, int) {
    std::memcpy(buf, fx.src.data() + i * fx.block,
                static_cast<std::size_t>(fx.block) * sizeof(cplx));
  };
  HazardChecker checker(pipe);
  const HazardReport rep = checker.check(fx.stage);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(has_violation(rep, VKind::PartitionOverlap)) << rep.str();
  EXPECT_THROW(checker.run_checked(fx.stage), Error);
}

TEST(HazardChecker, ReportRendersContext) {
  RolePlan roles = make_role_plan(2, 1, host_topology());
  Trace t = correct_trace(4);
  for (auto& ev : t) {
    if (ev.kind == Kind::Compute && ev.step == 2) ev.half ^= 1;
  }
  const HazardReport rep = audit_schedule(t, 4, roles);
  ASSERT_FALSE(rep.clean());
  const std::string s = rep.str();
  EXPECT_NE(s.find("step 2"), std::string::npos) << s;
  EXPECT_NE(s.find("compute-overlap"), std::string::npos) << s;
}

TEST(HazardChecker, PrivatePipelineIsClean) {
  // p_d = 0: the Private schedule, its probe and the slice-ownership audit
  // on a stage whose tasks partition the block identically.
  ThreadTeam team(4);
  DoubleBufferPipeline pipe(team, make_role_plan(4, 4, host_topology()), 64);
  CopyStage fx(64 * 5, 64);
  const HazardReport rep = HazardChecker(pipe).check(fx.stage);
  EXPECT_TRUE(rep.clean()) << rep.str();
  for (std::size_t j = 0; j < fx.src.size(); ++j) {
    ASSERT_EQ(fx.src[j] * 2.0, fx.dst[j]) << "element " << j;
  }
}

TEST(HazardChecker, PrivateSliceStealDetected) {
  // Rank 1 loads rank 0's slice: the partition probe alone still sees
  // overlap and gap, and the slice audit names the mismatch. Probed
  // sequentially (nothing executes), so the defect races nothing.
  const idx_t block = 64;
  const int parts = 4;
  auto load = [&](idx_t, cplx* buf, int rank, int) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank == 1 ? 0 : rank);
    for (idx_t j = b; j < e; ++j) buf[j] = cplx(1.0, 0.0);
  };
  auto compute = [&](idx_t, cplx* buf, int rank, int) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank);
    for (idx_t j = b; j < e; ++j) buf[j] *= 2.0;
  };
  HazardReport rep;
  analysis::audit_slices(probe_partition(load, 0, block, parts),
                         probe_partition(compute, 0, block, parts), rep);
  ASSERT_FALSE(rep.clean());
  EXPECT_TRUE(has_violation(rep, VKind::SliceMismatch)) << rep.str();
}

TEST(HazardChecker, PrivateProgramOrderEnforced) {
  // A thread whose compute(2) is recorded before its load(2) broke the
  // L(i) -> C(i) -> S(i) order of the Private schedule.
  const RolePlan roles = make_role_plan(2, 2, host_topology());
  Trace trace = analysis::make_table2_trace(3, roles);
  ASSERT_TRUE(audit_schedule(trace, 3, roles).clean());
  std::swap(trace[3], trace[4]);  // tid 0: L(2), C(2) -> C(2), L(2)
  const HazardReport rep = audit_schedule(trace, 3, roles);
  EXPECT_TRUE(has_violation(rep, VKind::ProgramOrder)) << rep.str();
}

TEST(HazardChecker, PrivateFusedStagesAreClean) {
  // Fused claims: the compute reads its claim from src (Fusion::Load,
  // the store still copies the tile out) or also writes dst itself
  // (LoadStore). The trace has only the tasks the stage has, the audit
  // accepts it, and the data is transformed exactly once.
  ThreadTeam team(4);
  DoubleBufferPipeline pipe(team, make_role_plan(4, 4, host_topology()), 64);
  for (Fusion fused : {Fusion::Load, Fusion::LoadStore}) {
    SCOPED_TRACE(fusion_name(fused));
    CopyStage fx(64 * 7, 64);
    fx.stage.load = nullptr;
    fx.stage.compute = [&fx, fused](idx_t i, cplx* buf, int, int) {
      cplx* to = fused == Fusion::Load ? buf : fx.dst.data() + i * fx.block;
      for (idx_t j = 0; j < fx.block; ++j) {
        to[j] = fx.src[static_cast<std::size_t>(i * fx.block + j)] * 2.0;
      }
    };
    if (fused == Fusion::LoadStore) fx.stage.store = nullptr;
    ASSERT_EQ(fused, fx.stage.fusion());
    Trace trace;
    pipe.set_trace(&trace);
    pipe.execute(fx.stage);
    pipe.set_trace(nullptr);
    EXPECT_EQ(static_cast<std::size_t>(fused == Fusion::Load ? 14 : 7),
              trace.size());
    EXPECT_TRUE(audit_schedule(trace, 7, pipe.roles(), fused).clean());
    EXPECT_FALSE(audit_schedule(trace, 7, pipe.roles()).clean())
        << "an unfused audit misses the loads";
    const HazardReport rep = HazardChecker(pipe).check(fx.stage);
    EXPECT_TRUE(rep.clean()) << rep.str();
    for (std::size_t j = 0; j < fx.src.size(); ++j) {
      ASSERT_EQ(fx.src[j] * 2.0, fx.dst[j]) << "element " << j;
    }
  }
}

TEST(HazardChecker, SplitRejectsAFusedStage) {
  // The Table II roles need a load and a store task to run.
  ThreadTeam team(2);
  DoubleBufferPipeline pipe(team, make_role_plan(2, 1, host_topology()), 64);
  CopyStage fx(64 * 2, 64);
  fx.stage.load = nullptr;
  EXPECT_THROW(pipe.execute(fx.stage), Error);
}

TEST(HazardChecker, FusedOutputProbeFindsAMisroutedClaim) {
  // probe_outputs: claims writing their own 16-element windows of the
  // output cover it disjointly; claim 1 one element off overlaps claim 2
  // and leaves its first element unwritten. Given the claims' expected
  // windows (the engine self-audit's one-pass probe) the map is the same.
  const idx_t claims = 4, width = 16;
  cvec out(static_cast<std::size_t>(claims * width + 1));
  std::vector<OwnedWindow> windows;
  for (idx_t i = 0; i < claims; ++i) {
    windows.push_back(
        {static_cast<int>(i), StridedInterval::contiguous(i * width, width)});
  }
  for (idx_t off : {idx_t{0}, idx_t{1}}) {
    const auto task = [&](idx_t i, cplx*, int, int) {
      const idx_t b = i * width + (i == 1 ? off : 0);
      for (idx_t j = b; j < b + width; ++j) out[j] = cplx(1.0, 0.0);
    };
    const analysis::PartitionMap exact = analysis::probe_outputs(
        task, claims, out.data(), claims * width, width);
    const analysis::PartitionMap windowed = analysis::probe_outputs(
        task, claims, out.data(), claims * width, width, &windows);
    EXPECT_EQ(exact.writers, windowed.writers) << "off " << off;
    HazardReport rep;
    audit_partition(windowed, true, "fused store", rep);
    EXPECT_EQ(off == 0, rep.clean()) << rep.str();
    if (off == 1) {
      EXPECT_TRUE(has_violation(rep, VKind::PartitionOverlap)) << rep.str();
      EXPECT_TRUE(has_violation(rep, VKind::PartitionGap)) << rep.str();
    }
  }
}

}  // namespace
}  // namespace bwfft
