// Tests for the tuning candidate grid and the bandwidth cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/topology.h"
#include "fft/engine.h"
#include "kernels/isa.h"
#include "pipeline/stage_plan.h"
#include "tune/candidates.h"

namespace bwfft::tune {
namespace {

FftOptions auto_request() {
  FftOptions req;
  req.engine = EngineKind::Auto;
  return req;
}

bool contains_engine(const std::vector<TuneCandidate>& grid, EngineKind e) {
  return std::any_of(grid.begin(), grid.end(),
                     [&](const TuneCandidate& c) { return c.engine == e; });
}

TEST(Candidates, GridCoversEnginesPerRank) {
  const auto grid3 = enumerate_candidates({64, 64, 64}, auto_request());
  EXPECT_TRUE(contains_engine(grid3, EngineKind::DoubleBuffer));
  EXPECT_TRUE(contains_engine(grid3, EngineKind::StageParallel));
  EXPECT_TRUE(contains_engine(grid3, EngineKind::Pencil));
  EXPECT_TRUE(contains_engine(grid3, EngineKind::SlabPencil));
  EXPECT_FALSE(contains_engine(grid3, EngineKind::Reference));
  EXPECT_FALSE(contains_engine(grid3, EngineKind::Auto));

  const auto grid2 = enumerate_candidates({256, 256}, auto_request());
  EXPECT_FALSE(contains_engine(grid2, EngineKind::SlabPencil));
  EXPECT_TRUE(contains_engine(grid2, EngineKind::DoubleBuffer));
}

TEST(Candidates, EveryCandidateBuilds) {
  // Pencil plans only at powers of two, slab-pencil only at a z size with
  // a Stockham schedule (12 has one, 17 does not).
  FftOptions req = auto_request();
  req.threads = 4;
  EXPECT_FALSE(contains_engine(enumerate_candidates({12, 16, 16}, req),
                               EngineKind::Pencil));
  EXPECT_TRUE(contains_engine(enumerate_candidates({12, 16, 16}, req),
                              EngineKind::SlabPencil));
  EXPECT_FALSE(contains_engine(enumerate_candidates({17, 16, 16}, req),
                               EngineKind::SlabPencil));
  const std::vector<std::vector<idx_t>> shapes = {
      {12, 16, 16}, {17, 16, 16}, {16, 16, 12}, {6, 4}, {17}, {768}};
  for (const auto& dims : shapes) {
    for (const TuneCandidate& c : enumerate_candidates(dims, req)) {
      EXPECT_NO_THROW(
          make_engine(dims, Direction::Forward, apply_candidate(c, req)))
          << dims.size() << "D " << dims.front() << ": "
          << candidate_label(c);
    }
  }
}

TEST(Candidates, GridContainsTheDefaultConfig) {
  const auto grid = enumerate_candidates({64, 64, 64}, auto_request());
  const TuneCandidate def = default_candidate();
  EXPECT_TRUE(std::any_of(
      grid.begin(), grid.end(),
      [&](const TuneCandidate& c) { return same_config(c, def); }));
}

TEST(Candidates, PinnedKnobsCollapseTheirAxis) {
  FftOptions req = auto_request();
  req.packet_elems = 2;
  const auto grid = enumerate_candidates({64, 64}, req);
  for (const TuneCandidate& c : grid) {
    if (c.engine == EngineKind::DoubleBuffer ||
        c.engine == EngineKind::StageParallel) {
      EXPECT_EQ(2, c.packet_elems) << candidate_label(c);
    }
  }

  FftOptions pinned_engine = auto_request();
  pinned_engine.engine = EngineKind::StageParallel;
  for (const TuneCandidate& c :
       enumerate_candidates({64, 64}, pinned_engine)) {
    EXPECT_EQ(EngineKind::StageParallel, c.engine);
  }
}

TEST(Candidates, PacketCandidatesDivideTheFastDimension) {
  // m = 15 is odd: the mu = 2 variant must not be enumerated.
  const auto grid = enumerate_candidates({32, 15}, auto_request());
  for (const TuneCandidate& c : grid) {
    EXPECT_NE(2, c.packet_elems) << candidate_label(c);
    if (c.packet_elems > 0) {
      EXPECT_EQ(0, 15 % c.packet_elems);
    }
  }
}

TEST(Candidates, WideAutoPacketKeepsTheNarrowPacketsAsAlternates) {
  // 256^3 at p = 4: the auto packet is the plan's wide one; the SIMD
  // packet and the one-cacheline packet stay in the grid so measurement
  // can reject the wide packet, each exactly once per configuration.
  FftOptions req = auto_request();
  req.threads = 4;
  const std::vector<idx_t> dims{256, 256, 256};
  const idx_t wide = make_stage_plan(dims, req).mu;
  ASSERT_EQ(kMaxPacketElems, wide);
  std::vector<idx_t> packets;
  for (const TuneCandidate& c : enumerate_candidates(dims, req)) {
    if (c.engine == EngineKind::DoubleBuffer && c.compute_threads < 0 &&
        c.block_elems == 0 && c.nontemporal && c.isa == kernels::Isa::Auto) {
      packets.push_back(c.packet_elems);
    }
  }
  std::vector<idx_t> want = {0, resolve_packet_size(0, 256)};
  if (want.back() != kMu) want.push_back(kMu);
  want.push_back(2);
  want.push_back(1);
  EXPECT_EQ(want, packets);
  EXPECT_EQ(0, std::count(packets.begin(), packets.end(), wide));
}

TEST(Candidates, SplitAxisOffersBothSchedules) {
  // p = 4: the plan default (-1, the Private schedule at every rank)
  // plus the Split alternatives it does not resolve to: the even split
  // (2) and more compute than data threads (3).
  FftOptions req = auto_request();
  req.threads = 4;
  const auto splits = [&](const std::vector<idx_t>& dims) {
    std::set<int> out;
    for (const TuneCandidate& c : enumerate_candidates(dims, req)) {
      if (c.engine == EngineKind::DoubleBuffer) out.insert(c.compute_threads);
    }
    return out;
  };
  EXPECT_EQ((std::set<int>{-1, 2, 3}), splits({64, 64, 64}));
  EXPECT_EQ((std::set<int>{-1, 2, 3}), splits({1 << 20}));
}

TEST(Candidates, NoTwoCandidatesRunTheSamePlan) {
  // Every planned candidate resolves to its own schedule, stages
  // (nontemporal and fusion included) and ISA: under Private a 2D/3D
  // claim ignores the half block, and p_c = p with temporal stores is the
  // stage-parallel plan, which stays in the grid.
  FftOptions req = auto_request();
  req.threads = 4;
  for (const std::vector<idx_t>& dims : std::vector<std::vector<idx_t>>{
           {64, 64, 64}, {256, 256, 256}, {4096, 4096}}) {
    std::vector<std::pair<TuneCandidate, StagePlan>> seen;
    bool split_half_block = false;
    for (const TuneCandidate& c : enumerate_candidates(dims, req)) {
      if (c.engine != EngineKind::DoubleBuffer &&
          c.engine != EngineKind::StageParallel) {
        continue;
      }
      const StagePlan plan = make_stage_plan(dims, apply_candidate(c, req));
      for (const auto& [prev, q] : seen) {
        EXPECT_FALSE(prev.isa == c.isa && q.schedule() == plan.schedule() &&
                     q.compute_threads == plan.compute_threads &&
                     q.stages == plan.stages)
            << candidate_label(prev) << " and " << candidate_label(c);
      }
      seen.emplace_back(c, plan);
      EXPECT_FALSE(c.engine == EngineKind::DoubleBuffer &&
                   c.compute_threads < 0 && !c.nontemporal)
          << candidate_label(c);
      split_half_block = split_half_block ||
                         (c.compute_threads >= 0 && c.block_elems > 0);
    }
    EXPECT_TRUE(contains_engine(enumerate_candidates(dims, req),
                                EngineKind::StageParallel));
    // 64^3 fits one block at either size; the larger shapes keep the
    // half block as a Split alternative.
    EXPECT_EQ(dims[0] > 64, split_half_block) << dims[0];
  }
}

TEST(Candidates, OnlyOneToThreeDimensionalShapes) {
  EXPECT_FALSE(enumerate_candidates({1 << 18}, auto_request()).empty());
  EXPECT_THROW(enumerate_candidates({4, 4, 4, 4}, auto_request()), Error);
}

TEST(Candidates, OneDimensionalGridCarriesFactorAxis) {
  // The 1D grid swaps the packet axis for the n = n1*n2 factorization
  // axis: every four-step candidate names a divisor of n and at least
  // two distinct factorizations are offered for a pow2 size.
  const idx_t n = 1 << 20;
  const auto grid = enumerate_candidates({n}, auto_request());
  std::set<idx_t> factors;
  for (const TuneCandidate& c : grid) {
    EXPECT_EQ(0, c.packet_elems) << candidate_label(c);
    if (c.engine == EngineKind::DoubleBuffer) {
      EXPECT_GT(c.factor_n1, 0) << candidate_label(c);
      EXPECT_EQ(0, n % c.factor_n1) << candidate_label(c);
      factors.insert(c.factor_n1);
    }
  }
  EXPECT_GE(factors.size(), 2u);
}

TEST(Candidates, FactorAxisIsTheNearSquareSplitAndItsSkews) {
  // The 1D factor axis is the plan's near-square n1 and its x2 / /2
  // skews, every one a divisor of n that leaves a real split.
  for (idx_t n : {idx_t{1} << 20, idx_t{1} << 24, idx_t{3} << 20}) {
    const idx_t f0 = four_step_factors(n, 0).first;
    std::set<idx_t> factors;
    for (const TuneCandidate& c : enumerate_candidates({n}, auto_request())) {
      if (c.engine != EngineKind::DoubleBuffer) continue;
      EXPECT_EQ(0, n % c.factor_n1) << candidate_label(c);
      EXPECT_GE(n / c.factor_n1, 2) << candidate_label(c);
      factors.insert(c.factor_n1);
    }
    EXPECT_EQ((std::set<idx_t>{f0 / 2, f0, 2 * f0}), factors) << "n=" << n;
  }
}

TEST(Candidates, ApplyCandidateCopiesKnobs) {
  TuneCandidate c;
  c.engine = EngineKind::StageParallel;
  c.compute_threads = 3;
  c.block_elems = 4096;
  c.packet_elems = 2;
  c.nontemporal = false;
  FftOptions base;
  base.threads = 7;  // untouched by the candidate
  const FftOptions got = apply_candidate(c, base);
  EXPECT_EQ(EngineKind::StageParallel, got.engine);
  EXPECT_EQ(3, got.compute_threads);
  EXPECT_EQ(4096, got.block_elems);
  EXPECT_EQ(2, got.packet_elems);
  EXPECT_FALSE(got.nontemporal);
  EXPECT_EQ(7, got.threads);
}

TEST(Candidates, SameConfigIgnoresResults) {
  TuneCandidate a = default_candidate(), b = default_candidate();
  a.est_seconds = 1.0;
  b.measured_seconds = 2.0;
  EXPECT_TRUE(same_config(a, b));
  b.nontemporal = false;
  EXPECT_FALSE(same_config(a, b));
}

TEST(CostModel, GrowsWithProblemSize) {
  const MachineTopology topo = machines::kabylake_7700k();
  const TuneCandidate c = default_candidate();
  const double small = estimate_seconds(c, {64, 64, 64}, topo, 0);
  const double large = estimate_seconds(c, {128, 128, 128}, topo, 0);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, 2.0 * small);  // 8x the data must cost well over 2x
}

TEST(CostModel, WriteAllocatePenalisesTemporalStores) {
  const MachineTopology topo = machines::kabylake_7700k();
  TuneCandidate nt = default_candidate();
  TuneCandidate wa = default_candidate();
  wa.nontemporal = false;
  EXPECT_GT(estimate_seconds(wa, {256, 256, 256}, topo, 0),
            estimate_seconds(nt, {256, 256, 256}, topo, 0));
}

TEST(CostModel, StridedPencilCostsMoreThanDoubleBuffer) {
  const MachineTopology topo = machines::kabylake_7700k();
  TuneCandidate pencil;
  pencil.engine = EngineKind::Pencil;
  EXPECT_GT(estimate_seconds(pencil, {256, 256, 256}, topo, 0),
            estimate_seconds(default_candidate(), {256, 256, 256}, topo, 0));
}

TEST(CostModel, ScalesWithBandwidth) {
  MachineTopology slow = machines::kabylake_7700k();
  MachineTopology fast = slow;
  fast.stream_bw_gbs = 2.0 * slow.stream_bw_gbs;
  TuneCandidate pencil;  // pure-bandwidth engine: no iteration overhead
  pencil.engine = EngineKind::Pencil;
  const double t_slow = estimate_seconds(pencil, {128, 128, 128}, slow, 0);
  const double t_fast = estimate_seconds(pencil, {128, 128, 128}, fast, 0);
  EXPECT_NEAR(t_slow / 2.0, t_fast, 1e-12);
}

TEST(CostModel, LabelNamesTheEngine) {
  TuneCandidate c = default_candidate();
  EXPECT_NE(std::string::npos, candidate_label(c).find("double-buffer"));
  c.engine = EngineKind::SlabPencil;
  EXPECT_NE(std::string::npos, candidate_label(c).find("slab-pencil"));
}

}  // namespace
}  // namespace bwfft::tune
