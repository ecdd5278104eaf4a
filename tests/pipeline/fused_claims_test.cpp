// Fused Private claims (PlannedStage::fused): a Rotated stage's first
// Stockham level reads each claim straight from the stage source, and
// its last level streams the packets to their rotated places; a 1D Rows
// claim gathers its rows into the tile and streams its R-element runs.
// Only the buffer hops change, so the output must be bitwise the
// unfused one.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "fft/double_buffer.h"
#include "kernels/isa.h"
#include "obs/obs.h"
#include "pipeline/stage_plan.h"

namespace bwfft {
namespace {

/// True when the table `isa` dispatches to has streaming codelets (the
/// scalar table, and builds without the SIMD tables, have none).
bool streams(kernels::Isa isa) {
  return kernels::batch_table(kernels::resolve_isa(isa)).nt_copy != nullptr;
}

/// Every ISA this host can run.
std::vector<kernels::Isa> host_isas() {
  std::vector<kernels::Isa> isas;
  for (kernels::Isa isa :
       {kernels::Isa::Scalar, kernels::Isa::Avx2, kernels::Isa::Avx512}) {
    if (kernels::isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

FftOptions opts_for(kernels::Isa isa, int compute_threads, idx_t mu) {
  FftOptions o;
  o.threads = 4;
  o.compute_threads = compute_threads;
  o.packet_elems = mu;
  o.isa = isa;
  return o;
}

/// Transform x on a fresh engine; `offset` elements into an aligned
/// output buffer (1 leaves it only 16 B aligned).
cvec run(const std::vector<idx_t>& dims, Direction dir, const FftOptions& o,
         const cvec& x, idx_t offset = 0,
         std::vector<Fusion>* fused = nullptr) {
  DoubleBufferEngine eng(dims, dir, o);
  AlignedBuffer<cplx> in(x.size()), out(x.size() + 1);
  std::memcpy(in.data(), x.data(), x.size() * sizeof(cplx));
  eng.execute(in.data(), out.data() + offset);
  if (fused != nullptr) {
    fused->clear();
    for (const auto& st : eng.last_stats()) fused->push_back(st.fused);
  }
  return cvec(out.data() + offset, out.data() + offset + x.size());
}

bool bitwise_equal(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/// The default Private plan (fused) against the even Split (unfused, no
/// fusion on a Split plan) at the same pinned packet.
void expect_fused_matches_split(const std::vector<idx_t>& dims) {
  idx_t n = 1;
  for (idx_t d : dims) n *= d;
  const cvec x = random_cvec(n, 2900 + n);
  for (kernels::Isa isa : host_isas()) {
    const StagePlan fused_plan = make_stage_plan(dims, opts_for(isa, -1, 0));
    ASSERT_EQ(Schedule::Private, fused_plan.schedule());
    for (const PlannedStage& s : fused_plan.stages) {
      EXPECT_NE(Fusion::None, s.fused) << s.name;
    }
    const idx_t mu = fused_plan.mu;
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      SCOPED_TRACE(::testing::Message()
                   << "isa " << kernels::isa_name(isa) << " mu " << mu
                   << (dir == Direction::Forward ? " forward" : " inverse"));
      std::vector<Fusion> ran;
      const cvec fused = run(dims, dir, opts_for(isa, -1, mu), x, 0, &ran);
      const cvec split = run(dims, dir, opts_for(isa, 2, mu), x);
      EXPECT_TRUE(bitwise_equal(fused, split));
      for (std::size_t k = 0; k < ran.size(); ++k) {
        // Without streaming codelets every stage fuses its load only.
        EXPECT_EQ(streams(isa) ? fused_plan.stages[k].fused : Fusion::Load,
                  ran[k])
            << "stage " << k;
      }
    }
  }
}

TEST(FusedClaims, Cube64MatchesSplitBitwise) {
  expect_fused_matches_split({64, 64, 64});
}

TEST(FusedClaims, NonCubicMatchesSplitBitwise) {
  expect_fused_matches_split({32, 256, 64});
}

TEST(FusedClaims, Rect2dMatchesSplitBitwise) {
  expect_fused_matches_split({128, 512});
}

TEST(FusedClaims, Square2dMatchesSplitBitwise) {
  expect_fused_matches_split({256, 256});
}

TEST(FusedClaims, StageZeroClaimWithRemainderMatchesSplitBitwise) {
  // 6 x 8 x 64 on four threads: 48 stage-0 pencils in claims of 12, one
  // full gathered group of 8 and a remainder of 4 under AVX-512.
  const std::vector<idx_t> dims = {6, 8, 64};
  const StagePlan plan =
      make_stage_plan(dims, opts_for(kernels::Isa::Auto, -1, 0));
  ASSERT_EQ(12, plan.stages[0].rows_per_block);
  expect_fused_matches_split(dims);
}

TEST(FusedClaims, UnalignedOutputTakesTheTileStore) {
  // out + 1 is 16 B aligned only: the stages that write it keep the tile
  // store (the ones writing the aligned input still stream), and the
  // output is still bitwise the Split one.
  const std::vector<idx_t> dims = {64, 64, 64};
  const cvec x = random_cvec(64 * 64 * 64, 2911);
  for (kernels::Isa isa : host_isas()) {
    if (!streams(isa)) continue;
    SCOPED_TRACE(kernels::isa_name(isa));
    const idx_t mu = make_stage_plan(dims, opts_for(isa, -1, 0)).mu;
    std::vector<Fusion> ran;
    const cvec fused =
        run(dims, Direction::Forward, opts_for(isa, -1, mu), x, 1, &ran);
    const cvec split = run(dims, Direction::Forward, opts_for(isa, 2, mu), x, 1);
    EXPECT_TRUE(bitwise_equal(fused, split));
    // 3D ping-pong: stages 0 and 2 write out, stage 1 writes in.
    EXPECT_EQ((std::vector<Fusion>{Fusion::Load, Fusion::LoadStore,
                                   Fusion::Load}),
              ran);
  }
}

/// The 1D four-step: the default fused Private plan on two threads
/// against the Split plan with two compute threads (p = 4, p_c = 2).
/// Both plans give two ranks a group, so W and R agree; the Rows stage
/// fuses its gather and streams its store where R >= 16.
void expect_four_step_matches_split(idx_t n) {
  const cvec x = random_cvec(n, 3100 + n);
  for (kernels::Isa isa : host_isas()) {
    FftOptions fused_opts = opts_for(isa, -1, 0);
    fused_opts.threads = 2;
    const FftOptions split_opts = opts_for(isa, 2, 0);
    const StagePlan fused_plan = make_stage_plan({n}, fused_opts);
    const StagePlan split_plan = make_stage_plan({n}, split_opts);
    ASSERT_EQ(Schedule::Private, fused_plan.schedule());
    ASSERT_EQ(Schedule::Split, split_plan.schedule());
    ASSERT_EQ(2u, fused_plan.stages.size());
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(split_plan.stages[k].group, fused_plan.stages[k].group);
    }
    const PlannedStage& rows = fused_plan.stages[1];
    EXPECT_EQ(rows.group >= kMinFusedStoreLanes ? Fusion::LoadStore
                                                : Fusion::None,
              rows.fused);
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      SCOPED_TRACE(::testing::Message()
                   << "n " << n << " isa " << kernels::isa_name(isa) << " R "
                   << rows.group
                   << (dir == Direction::Forward ? " forward" : " inverse"));
      std::vector<Fusion> ran;
      const cvec fused = run({n}, dir, fused_opts, x, 0, &ran);
      const cvec split = run({n}, dir, split_opts, x);
      EXPECT_TRUE(bitwise_equal(fused, split));
      // Without streaming codelets a fused Rows claim keeps its store.
      const Fusion want = rows.fused == Fusion::LoadStore && !streams(isa)
                              ? Fusion::Load
                              : rows.fused;
      EXPECT_EQ((std::vector<Fusion>{Fusion::None, want}), ran);
    }
  }
}

TEST(FusedClaims, FourStep2to16MatchesSplitBitwise) {
  expect_four_step_matches_split(idx_t{1} << 16);
}

TEST(FusedClaims, FourStep2to20MatchesSplitBitwise) {
  expect_four_step_matches_split(idx_t{1} << 20);
}

TEST(FusedClaims, FourStep2to22MatchesSplitBitwise) {
  expect_four_step_matches_split(idx_t{1} << 22);
}

TEST(FusedClaims, FourStepSmooth3x2to20MatchesSplitBitwise) {
  expect_four_step_matches_split(idx_t{3} << 20);
}

TEST(FusedClaims, CountedBytesMatchThePlan) {
#if !defined(BWFFT_OBS)
  GTEST_SKIP() << "built with BWFFT_OBS=OFF";
#else
  // A fused compute counts the bytes its claim reads and streams, so
  // one execute still loads and stores each stage's array once.
  for (const std::vector<idx_t>& dims :
       {std::vector<idx_t>{64, 64, 64}, std::vector<idx_t>{idx_t{1} << 16}}) {
    FftOptions o;
    o.threads = 4;
    DoubleBufferEngine eng(dims, Direction::Forward, o);
    ASSERT_EQ(Fusion::LoadStore, eng.plan().stages.back().fused);
    const idx_t n = eng.plan().total;
    AlignedBuffer<cplx> in(n), out(n);
    const cvec x = random_cvec(n, 2912);
    std::memcpy(in.data(), x.data(), x.size() * sizeof(cplx));
    obs::reset_counters();
    eng.execute(in.data(), out.data());
    const auto expected =
        static_cast<std::uint64_t>(eng.plan().expected_bytes());
    EXPECT_EQ(expected, obs::counter_total(obs::Counter::BytesLoaded)) << n;
    EXPECT_EQ(expected, obs::counter_total(obs::Counter::BytesStored)) << n;
  }
#endif
}

}  // namespace
}  // namespace bwfft
