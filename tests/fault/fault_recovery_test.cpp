// End-to-end recovery tests: every fault family the harness can inject —
// allocation failure, pin rejection, spawn failure, barrier/pipeline
// stalls, wisdom corruption — must degrade to a correct result (bit-exact
// where the recovery does not change the algorithm) and report through
// the Status / ExecReport layer, never crash or deadlock.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "fft/dual_socket.h"
#include "fft/fft.h"
#include "fft/reference.h"
#include "parallel/barrier.h"
#include "parallel/team.h"
#include "tune/wisdom.h"
#include "../test_util.h"

namespace bwfft {
namespace {

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    fault::reset_stats();
  }
  void TearDown() override {
    fault::clear();
    fault::reset_stats();
  }
  void arm(const std::string& spec) {
    std::string err;
    ASSERT_TRUE(fault::set_plan_from_spec(spec, &err)) << err;
  }
};

FftOptions engine_opts(EngineKind engine, int threads = 4) {
  FftOptions o;
  o.engine = engine;
  o.threads = threads;
  o.block_elems = 512;  // small buffer => several pipeline iterations
  return o;
}

/// Transform `input` with a fresh plan and return the output. Asserts
/// the no-throw path succeeds.
cvec run3d(idx_t k, idx_t n, idx_t m, const FftOptions& opts,
           ExecReport* rep = nullptr) {
  Fft3d plan(k, n, m, Direction::Forward, opts);
  cvec in = random_cvec(k * n * m);
  cvec out(in.size());
  const Status st = plan.try_execute(in.data(), out.data(), rep);
  EXPECT_TRUE(st.ok()) << st.str();
  return out;
}

cvec run2d(idx_t n, idx_t m, const FftOptions& opts) {
  Fft2d plan(n, m, Direction::Forward, opts);
  cvec in = random_cvec(n * m);
  cvec out(in.size());
  const Status st = plan.try_execute(in.data(), out.data());
  EXPECT_TRUE(st.ok()) << st.str();
  return out;
}

/// Bit-exact equality: degradations that only change *where* buffers live
/// or *how many* threads partition per-row work must not change a single
/// bit of the result.
void expect_identical(const cvec& a, const cvec& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)));
}

// ---------------------------------------------------------------------------
// Allocation-failure fallback at every engine's buffer setup

TEST_F(FaultRecoveryTest, PlacedAllocatorFallsBackToPlain) {
  arm("alloc.huge:*;alloc.numa:*");
  AllocPlacement got = AllocPlacement::HugePage;
  void* p = aligned_alloc_placed(1 << 20, AllocPlacement::HugePage, &got);
  ASSERT_NE(nullptr, p);
  EXPECT_EQ(AllocPlacement::Plain, got);
  aligned_free_placed(p);
  p = aligned_alloc_placed(1 << 20, AllocPlacement::NumaLocal, &got);
  ASSERT_NE(nullptr, p);
  EXPECT_EQ(AllocPlacement::Plain, got);
  aligned_free_placed(p);
  EXPECT_EQ(2u, fault::injected_count());
  EXPECT_GE(fault::degraded_count(), 2u);
}

TEST_F(FaultRecoveryTest, DoubleBuffer3dSurvivesHugePageFailureBitExact) {
  const cvec want = run3d(16, 16, 16, engine_opts(EngineKind::DoubleBuffer));
  arm("alloc.huge:*");
  const cvec got = run3d(16, 16, 16, engine_opts(EngineKind::DoubleBuffer));
  expect_identical(want, got);
  EXPECT_GE(fault::fired_count(fault::kSiteAllocHuge), 1u);
  EXPECT_GE(fault::degraded_count(), 1u);
}

TEST_F(FaultRecoveryTest, DoubleBuffer2dSurvivesHugePageFailureBitExact) {
  const cvec want = run2d(32, 32, engine_opts(EngineKind::DoubleBuffer));
  arm("alloc.huge:*");
  const cvec got = run2d(32, 32, engine_opts(EngineKind::DoubleBuffer));
  expect_identical(want, got);
  EXPECT_GE(fault::fired_count(fault::kSiteAllocHuge), 1u);
}

TEST_F(FaultRecoveryTest, StageParallel2dSurvivesHugePageFailureBitExact) {
  const cvec want = run2d(32, 32, engine_opts(EngineKind::StageParallel));
  arm("alloc.huge:*");
  const cvec got = run2d(32, 32, engine_opts(EngineKind::StageParallel));
  expect_identical(want, got);
  EXPECT_GE(fault::fired_count(fault::kSiteAllocHuge), 1u);
}

TEST_F(FaultRecoveryTest, SlabPencil3dSurvivesHugePageFailureBitExact) {
  const cvec want = run3d(16, 16, 16, engine_opts(EngineKind::SlabPencil));
  arm("alloc.huge:*");
  const cvec got = run3d(16, 16, 16, engine_opts(EngineKind::SlabPencil));
  expect_identical(want, got);
  // One scratch slab per thread, all degraded.
  EXPECT_GE(fault::fired_count(fault::kSiteAllocHuge), 4u);
}

TEST_F(FaultRecoveryTest, DualSocketSurvivesNumaAndHugeFailureBitExact) {
  const idx_t k = 16, n = 16, m = 16;
  FftOptions opts = engine_opts(EngineKind::DoubleBuffer);
  cvec in = random_cvec(k * n * m);
  cvec want(in.size()), got(in.size());
  {
    DualSocketFft3d fft(k, n, m, Direction::Forward, opts, /*sockets=*/2);
    cvec scratch = in;
    fft.execute(scratch.data(), want.data());
  }
  arm("alloc.numa:*;alloc.huge:*");
  {
    DualSocketFft3d fft(k, n, m, Direction::Forward, opts, /*sockets=*/2);
    cvec scratch = in;
    fft.execute(scratch.data(), got.data());
  }
  expect_identical(want, got);
  // NumaArray slabs degrade (two arrays x two domains inside execute)
  // and the per-socket pipeline buffers degrade at plan construction.
  EXPECT_GE(fault::fired_count(fault::kSiteAllocNuma), 4u);
  EXPECT_GE(fault::fired_count(fault::kSiteAllocHuge), 2u);
}

TEST_F(FaultRecoveryTest, PlainAllocFailureFallsBackToReferenceEngine) {
  const idx_t k = 8, n = 8, m = 8;
  cvec in = random_cvec(k * n * m);
  cvec want(in.size());
  {
    cvec scratch = in;
    reference_dft_3d(scratch.data(), want.data(), k, n, m,
                     Direction::Forward);
  }
  // The first aligned allocation of plan construction fails terminally
  // (no placement fallback exists for plain memory); the facade must
  // degrade to the reference engine rather than throw.
  arm("alloc.aligned");
  Fft3d plan(k, n, m, Direction::Forward,
             engine_opts(EngineKind::DoubleBuffer, 2));
  EXPECT_STREQ("reference", plan.engine_name());
  EXPECT_GE(fault::retried_count(), 1u);
  cvec out(in.size());
  ExecReport rep;
  cvec scratch = in;
  const Status st = plan.try_execute(scratch.data(), out.data(), &rep);
  ASSERT_TRUE(st.ok()) << st.str();
  EXPECT_EQ("reference", rep.engine);
  expect_identical(want, out);
}

TEST_F(FaultRecoveryTest, OneDimensionalPinnedPacketDegradesToTheFlatPass) {
  // A 1D plan's first fallback is the flat pass, which has no column
  // group for a pinned packet: the degraded request drops the pin.
  const idx_t n = 4096;
  FftOptions opts = engine_opts(EngineKind::DoubleBuffer, 1);
  opts.packet_elems = 8;
  arm("alloc.aligned");
  std::unique_ptr<MdEngine> engine =
      make_engine_recovering({n}, Direction::Forward, opts);
  EXPECT_EQ(EngineKind::StageParallel, opts.engine);
  EXPECT_STREQ("stage-parallel", engine->name());
  const cvec in = random_cvec(n);
  cvec want(in.size()), out(in.size()), scratch = in;
  reference_dft_1d(scratch.data(), want.data(), n, Direction::Forward);
  scratch = in;
  engine->execute(scratch.data(), out.data());
  EXPECT_LT(test::max_err(want, out), test::fft_tol(static_cast<double>(n)));
}

// ---------------------------------------------------------------------------
// Affinity-pin rejection

TEST_F(FaultRecoveryTest, RejectedPinsRunUnpinnedAndAreCounted) {
  arm("pin:*");
  ThreadTeam team(2, {0, 1});
  // Run one job so both workers are past their pinning step.
  std::atomic<int> hits{0};
  team.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(2, hits.load());
  EXPECT_EQ(2, team.pin_failures());
  EXPECT_EQ(2u, fault::fired_count(fault::kSitePin));
  EXPECT_GE(fault::degraded_count(), 2u);
  // The team stays fully usable unpinned.
  team.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(4, hits.load());
}

TEST_F(FaultRecoveryTest, PinnedPlanSurvivesPinFailureBitExact) {
  FftOptions opts = engine_opts(EngineKind::DoubleBuffer);
  opts.pin_threads = true;
  const cvec want = run3d(16, 16, 16, opts);
  arm("pin:*");
  const cvec got = run3d(16, 16, 16, opts);
  expect_identical(want, got);
  EXPECT_GE(fault::fired_count(fault::kSitePin), 1u);
}

// ---------------------------------------------------------------------------
// Thread-spawn failure

TEST_F(FaultRecoveryTest, SpawnFailureRebuildsWithSmallerTeam) {
  const cvec want = run3d(16, 16, 16, engine_opts(EngineKind::DoubleBuffer));
  arm("spawn.thread");  // the first spawn attempt fails once
  ExecReport rep;
  const cvec got =
      run3d(16, 16, 16, engine_opts(EngineKind::DoubleBuffer), &rep);
  // The construction-time recovery halved the team; per-row FFT
  // arithmetic is partition-independent, so the result is identical.
  expect_identical(want, got);
  EXPECT_EQ(1u, fault::fired_count(fault::kSiteSpawnThread));
  EXPECT_GE(fault::retried_count(), 1u);
  EXPECT_TRUE(rep.status.ok());
}

TEST_F(FaultRecoveryTest, PersistentSpawnFailureFallsBackToReference) {
  arm("spawn.thread:*");  // every spawn fails: no team can ever be built
  Fft3d plan(8, 8, 8, Direction::Forward,
             engine_opts(EngineKind::DoubleBuffer, 2));
  EXPECT_STREQ("reference", plan.engine_name());
  cvec in = random_cvec(8 * 8 * 8), out(in.size()), want(in.size());
  {
    cvec scratch = in;
    reference_dft_3d(scratch.data(), want.data(), 8, 8, 8,
                     Direction::Forward);
  }
  const Status st = plan.try_execute(in.data(), out.data());
  ASSERT_TRUE(st.ok()) << st.str();
  expect_identical(want, out);
}

TEST_F(FaultRecoveryTest, ThreadTeamCtorCleansUpOnSpawnFailure) {
  // The third spawn fails; the two already-spawned workers must be
  // joined (not leaked to std::terminate) and the error must be typed.
  arm("spawn.thread@2");
  try {
    ThreadTeam team(4);
    FAIL() << "spawn fault did not surface";
  } catch (const Error& e) {
    EXPECT_EQ(ErrorCode::kWorkerLost, e.code());
  }
}

// ---------------------------------------------------------------------------
// Stalled workers

TEST_F(FaultRecoveryTest, BarrierStragglerSurfacesAsStallNotHang) {
  arm("barrier.stall=700");
  SpinBarrier barrier(2);
  barrier.set_stall_timeout_ms(100);
  std::vector<ErrorCode> thrown(2, ErrorCode::kOk);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      try {
        barrier.arrive_and_wait();
      } catch (const Error& e) {
        thrown[static_cast<std::size_t>(t)] = e.code();
      }
    });
  }
  for (auto& t : threads) t.join();  // must terminate: never a deadlock
  // Exactly one party was the injected straggler; the waiting party
  // diagnosed the stall. (The straggler itself completes the barrier on
  // arrival and returns normally.)
  const int stalls =
      static_cast<int>(thrown[0] == ErrorCode::kStall) +
      static_cast<int>(thrown[1] == ErrorCode::kStall);
  EXPECT_EQ(1, stalls) << "codes: " << error_code_name(thrown[0]) << ", "
                       << error_code_name(thrown[1]);
  EXPECT_EQ(1u, fault::fired_count(fault::kSiteBarrierStall));
}

TEST_F(FaultRecoveryTest, PipelineStallRecoversViaRetryBitExact) {
  const cvec want = run3d(16, 16, 16, engine_opts(EngineKind::DoubleBuffer));
  // One thread sleeps 600 ms at a pipeline barrier; the 250 ms watchdog
  // (armed automatically when a stall fault is scheduled) turns that
  // into kStall, and try_execute re-plans with a smaller team.
  arm("pipeline.stall=600");
  ExecReport rep;
  const cvec got =
      run3d(16, 16, 16, engine_opts(EngineKind::DoubleBuffer), &rep);
  expect_identical(want, got);
  EXPECT_TRUE(rep.status.ok());
  EXPECT_GE(rep.retries, 1);
  EXPECT_EQ(1u, fault::fired_count(fault::kSitePipelineStall));
  EXPECT_GE(fault::retried_count(), 1u);
}

TEST_F(FaultRecoveryTest, PipelineStallCanTargetABarrierEpoch) {
  // The pipeline passes its step index as the fault context, so /2 only
  // matches barrier arrivals at step 2 — the spec's count is spent on
  // that epoch, not on step 0.
  arm("pipeline.stall/2=600");
  const cvec got = run3d(16, 16, 16, engine_opts(EngineKind::DoubleBuffer));
  EXPECT_EQ(1u, fault::fired_count(fault::kSitePipelineStall));
  // The spec is exhausted now, so this run is fault-free.
  const cvec want = run3d(16, 16, 16, engine_opts(EngineKind::DoubleBuffer));
  expect_identical(want, got);
}

// ---------------------------------------------------------------------------
// Wisdom persistence

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

tune::Wisdom one_entry_wisdom(double seconds) {
  tune::WisdomEntry e;
  e.dims = {32, 32, 32};
  e.dir = Direction::Forward;
  e.fingerprint = "s1c4t2llc8388608";
  e.config.engine = EngineKind::DoubleBuffer;
  e.seconds = seconds;
  e.level = TuneLevel::Measure;
  tune::Wisdom w;
  w.record(e);
  return w;
}

TEST_F(FaultRecoveryTest, WisdomSaveIsAtomic) {
  const std::string path = temp_path("fault_wisdom_atomic.json");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::string err;
  ASSERT_TRUE(one_entry_wisdom(1e-3).save_file(path, &err)) << err;
  // The temp file was renamed away, not left behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(nullptr, tmp);
  if (tmp) std::fclose(tmp);
  tune::Wisdom loaded;
  ASSERT_TRUE(loaded.load_file(path, &err)) << err;
  EXPECT_EQ(1u, loaded.size());
  std::remove(path.c_str());
}

TEST_F(FaultRecoveryTest, TornWriteLeavesThePreviousFileIntact) {
  const std::string path = temp_path("fault_wisdom_torn.json");
  std::remove(path.c_str());
  std::string err;
  ASSERT_TRUE(one_entry_wisdom(1e-3).save_file(path, &err)) << err;

  arm("wisdom.torn");
  tune::Wisdom bigger = one_entry_wisdom(1e-3);
  tune::WisdomEntry e2;
  e2.dims = {64, 64};
  e2.dir = Direction::Inverse;
  e2.fingerprint = "s1c4t2llc8388608";
  e2.config.engine = EngineKind::StageParallel;
  e2.seconds = 2e-3;
  e2.level = TuneLevel::Measure;
  bigger.record(e2);
  EXPECT_FALSE(bigger.save_file(path, &err));  // the simulated crash
  EXPECT_EQ(1u, fault::fired_count(fault::kSiteWisdomTorn));

  // The destination still holds the previous, complete document.
  tune::Wisdom loaded;
  ASSERT_TRUE(loaded.load_file(path, &err)) << err;
  EXPECT_EQ(1u, loaded.size());

  // A later, healthy save replaces both the file and the stray .tmp.
  ASSERT_TRUE(bigger.save_file(path, &err)) << err;
  tune::Wisdom reloaded;
  ASSERT_TRUE(reloaded.load_file(path, &err)) << err;
  EXPECT_EQ(2u, reloaded.size());
  std::remove(path.c_str());
}

TEST_F(FaultRecoveryTest, CorruptWisdomIsQuarantined) {
  const std::string path = temp_path("fault_wisdom_corrupt.json");
  const std::string quarantine = path + ".corrupt";
  std::remove(quarantine.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(nullptr, f);
  std::fputs("{\"schema\": \"bwfft-wis", f);  // torn mid-document
  std::fclose(f);

  tune::Wisdom w;
  std::string err;
  EXPECT_FALSE(tune::load_wisdom_file_guarded(&w, path, &err));
  EXPECT_EQ(0u, w.size());
  // The bad file moved aside; the original name is free for a re-tune.
  EXPECT_EQ(nullptr, std::fopen(path.c_str(), "rb"));
  std::FILE* q = std::fopen(quarantine.c_str(), "rb");
  EXPECT_NE(nullptr, q);
  if (q) std::fclose(q);
  EXPECT_GE(fault::degraded_count(), 1u);
  std::remove(quarantine.c_str());
}

TEST_F(FaultRecoveryTest, InjectedCorruptionTriggersQuarantine) {
  const std::string path = temp_path("fault_wisdom_injected.json");
  std::string err;
  ASSERT_TRUE(one_entry_wisdom(1e-3).save_file(path, &err)) << err;
  arm("wisdom.corrupt");
  tune::Wisdom w;
  EXPECT_FALSE(tune::load_wisdom_file_guarded(&w, path, &err));
  EXPECT_EQ(1u, fault::fired_count(fault::kSiteWisdomCorrupt));
  std::FILE* q = std::fopen((path + ".corrupt").c_str(), "rb");
  EXPECT_NE(nullptr, q);
  if (q) std::fclose(q);
  std::remove((path + ".corrupt").c_str());
}

TEST_F(FaultRecoveryTest, MissingWisdomFileIsNotQuarantined) {
  const std::string path = temp_path("fault_wisdom_missing.json");
  std::remove(path.c_str());
  tune::Wisdom w;
  std::string err;
  EXPECT_FALSE(tune::load_wisdom_file_guarded(&w, path, &err));
  EXPECT_EQ(nullptr, std::fopen((path + ".corrupt").c_str(), "rb"));
}

// ---------------------------------------------------------------------------
// Facade status plumbing and the per-family acceptance sweep

TEST_F(FaultRecoveryTest, BadPlanIsNotRetried) {
  try {
    Fft3d plan(7, 16, 16, Direction::Forward,
               engine_opts(EngineKind::DoubleBuffer, 2));
    // Non-power-of-two leading dim may or may not be rejected here;
    // either way construction must not spin in the retry loop.
  } catch (const Error& e) {
    EXPECT_EQ(ErrorCode::kBadPlan, e.code());
  }
  EXPECT_EQ(0u, fault::retried_count());
}

TEST_F(FaultRecoveryTest, ReportNamesThePlansThreadsNotTheRequest) {
  // threads_used is the team the plan ran on: a Flat 1D plan runs on the
  // caller alone whatever the request, a tiled plan on its p.
  struct Case {
    std::vector<idx_t> dims;
    EngineKind engine;
    int want;
  };
  for (const Case& c : std::vector<Case>{
           {{65536}, EngineKind::StageParallel, 1},
           {{65537}, EngineKind::DoubleBuffer, 1},
           {{65536}, EngineKind::DoubleBuffer, 4},
           {{32, 32}, EngineKind::DoubleBuffer, 4},
           {{16, 16}, EngineKind::Reference, 1}}) {
    FftOptions opts = engine_opts(c.engine, 4);
    std::unique_ptr<MdEngine> engine;
    idx_t total = 1;
    for (idx_t d : c.dims) total *= d;
    cvec in = random_cvec(total), out(in.size());
    ExecReport rep;
    const Status st = try_execute_recovering(c.dims, Direction::Forward, opts,
                                             engine, in.data(), out.data(),
                                             &rep);
    ASSERT_TRUE(st.ok()) << st.str();
    EXPECT_EQ(c.want, rep.threads_used) << rep.engine << " total=" << total;
  }
}

TEST_F(FaultRecoveryTest, AcceptanceSweepEveryFamilyDegradesBitExact) {
  const idx_t k = 16, n = 16, m = 16;
  FftOptions base = engine_opts(EngineKind::DoubleBuffer);
  base.pin_threads = true;  // so the pin family has something to reject
  const cvec want = run3d(k, n, m, base);

  struct Family {
    const char* name;
    const char* spec;
    const char* site;
  };
  const Family families[] = {
      {"alloc", "alloc.huge:*", fault::kSiteAllocHuge},
      {"pin", "pin:*", fault::kSitePin},
      {"spawn", "spawn.thread", fault::kSiteSpawnThread},
      {"stall", "pipeline.stall=600", fault::kSitePipelineStall},
  };
  for (const Family& fam : families) {
    SCOPED_TRACE(fam.name);
    fault::clear();
    fault::reset_stats();
    arm(fam.spec);
    ExecReport rep;
    const cvec got = run3d(k, n, m, base, &rep);
    EXPECT_TRUE(rep.status.ok()) << rep.status.str();
    expect_identical(want, got);
    EXPECT_GE(fault::fired_count(fam.site), 1u)
        << "family did not inject anything";
    EXPECT_GE(fault::injected_count() + fault::degraded_count() +
                  fault::retried_count(),
              1u);
  }
}

}  // namespace
}  // namespace bwfft
