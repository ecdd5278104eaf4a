// Tests for StagePlan (src/pipeline/stage_plan), the one description of a
// planned double-buffer transform that the engines execute and the
// verifier, lint and cost model read.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "fft/double_buffer.h"
#include "kernels/isa.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"

namespace bwfft {
namespace {

TEST(StagePlan, TilingInvariantsAcrossShapesThreadsAndBlocks) {
  const std::vector<std::vector<idx_t>> shapes = {
      {4096}, {3 * 1024}, {65536}, {65537},  // 65537 is prime: flat
      {64, 64}, {256, 128}, {32, 32, 32}, {16, 32, 64}};
  for (const auto& dims : shapes) {
    for (int threads : {1, 2, 4, 8}) {
      for (idx_t block : {idx_t{0}, idx_t{3000}, idx_t{1}}) {
        FftOptions o;
        o.threads = threads;
        o.block_elems = block;
        const StagePlan plan = make_stage_plan(dims, o);
        SCOPED_TRACE(::testing::Message()
                     << "dims[0]=" << dims[0] << " rank=" << dims.size()
                     << " p=" << threads << " block=" << block);
        EXPECT_GE(plan.compute_threads, 0);
        EXPECT_LE(plan.compute_threads, plan.threads);
        EXPECT_EQ(plan.threads, plan.compute_threads + plan.data_threads);
        ASSERT_FALSE(plan.stages.empty());
        for (const PlannedStage& s : plan.stages) {
          EXPECT_EQ(s.rows, s.iterations * s.rows_per_block) << s.name;
          EXPECT_GE(plan.block_elems, s.row_elems) << s.name;
          EXPECT_LE(s.rows_per_block * s.row_elems, plan.block_elems)
              << s.name;
          EXPECT_EQ(plan.total, s.rows * s.row_elems) << s.name;
        }
        if (dims.size() == 1) {
          EXPECT_EQ(dims[0], plan.n1 * plan.n2);
        }
      }
    }
  }
}

TEST(StagePlan, FourStepPassesAndFlatFallback) {
  FftOptions o;
  o.threads = 4;
  const StagePlan split = make_stage_plan({65536}, o);
  ASSERT_EQ(2u, split.stages.size());
  EXPECT_EQ(StageKind::Columns, split.stages[0].kind);
  EXPECT_EQ(StageKind::Rows, split.stages[1].kind);
  EXPECT_EQ(0, split.n2 % split.stages[0].group);
  EXPECT_EQ(0, split.n1 % split.stages[1].group);
  EXPECT_LE(split.stages[0].group, kFourStepMaxCols);
  EXPECT_LE(split.stages[1].group, kFourStepMaxRows);

  const StagePlan flat = make_stage_plan({65537}, o);
  ASSERT_EQ(1u, flat.stages.size());
  EXPECT_EQ(StageKind::Flat, flat.stages[0].kind);
  EXPECT_EQ(1, flat.threads);  // the flat pass runs on the caller
}

TEST(StagePlan, RowGroupsCoverEveryRank) {
  // The Rows stage's R is capped so that every block holds at least
  // max(p_c, p_d) row groups: ThreadTeam::chunk then hands each compute
  // and each data rank a group instead of leaving ranks idle at the
  // barrier. Under Private (pc = -1) the stage holds at least p claims.
  for (int lg = 18; lg <= 26; ++lg) {
    for (int p : {2, 4, 8}) {
      for (int pc : {-1, 1, p - 1}) {
        FftOptions o;
        o.threads = p;
        o.compute_threads = pc;
        const StagePlan plan = make_stage_plan({idx_t{1} << lg}, o);
        SCOPED_TRACE(::testing::Message()
                     << "n=2^" << lg << " p=" << p << " pc=" << pc);
        ASSERT_EQ(2u, plan.stages.size());
        const PlannedStage& rows = plan.stages[1];
        ASSERT_EQ(StageKind::Rows, rows.kind);
        const idx_t ranks =
            std::max(plan.compute_threads, plan.data_threads);
        if (plan.schedule() == Schedule::Private) {
          EXPECT_GE(rows.iterations, ranks) << "R=" << rows.group;
        } else {
          EXPECT_GE(rows.rows_per_block, ranks) << "R=" << rows.group;
        }
        EXPECT_EQ(0, plan.n1 % rows.group) << "R=" << rows.group;
        EXPECT_LE(rows.group, kFourStepMaxRows);
      }
    }
  }
}

TEST(StagePlan, FourStepGroupsCoverEveryRankOfBothStages) {
  // W and R follow one rule: the widest group that still leaves every
  // rank a group per block, at the policy block and at half of it (the
  // tuner's block axis), for any team size. The Private claims then give
  // every thread at least one group.
  const idx_t policy = default_block_elems(FftOptions{}.topo);
  for (idx_t n : {idx_t{1} << 18, idx_t{1} << 20, idx_t{1} << 22,
                  idx_t{1} << 24, idx_t{1} << 26, idx_t{3} << 20}) {
    for (int p : {1, 2, 3, 4, 8}) {
      for (idx_t block : {policy, policy / 2}) {
        FftOptions o;
        o.threads = p;
        o.block_elems = block;
        const StagePlan plan = make_stage_plan({n}, o);
        SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p
                                          << " block=" << block);
        ASSERT_EQ(2u, plan.stages.size());
        EXPECT_EQ(Schedule::Private, plan.schedule());
        EXPECT_LE(plan.n1, plan.n2);
        const idx_t counts[2] = {plan.n2, plan.n1};
        for (int k = 0; k < 2; ++k) {
          const PlannedStage& s = plan.stages[k];
          EXPECT_EQ(0, counts[k] % s.group) << s.name;
          EXPECT_GE(s.iterations, p) << s.name << " group=" << s.group;
          EXPECT_GE(s.group, kMu) << s.name;
        }
      }
    }
  }
}

TEST(StagePlan, LargeOneDIsPrivateWithCorePrivateGroups) {
  // 2^24 on four threads: the near-square 4096 x 4096 split, the Private
  // schedule, and W = R = 16 (256 B runs): a 16 x 4096 group is 1 MiB,
  // half of a 2 MiB L2, so each claim is one group and its Stockham
  // scratch fits the L2 beside it. The block does not bind until a
  // quarter of the policy block, where the rank rule halves both groups
  // to 8 instead of leaving two ranks idle (a claim then takes two); a
  // 1 MiB L2 halves them too.
  FftOptions o;
  o.threads = 4;
  o.block_elems = 524288;
  o.topo.l2_bytes = 2u << 20;
  const StagePlan plan = make_stage_plan({idx_t{1} << 24}, o);
  EXPECT_EQ(Schedule::Private, plan.schedule());
  EXPECT_EQ(4096, plan.n1);
  EXPECT_EQ(4096, plan.n2);
  EXPECT_EQ(524288, plan.block_elems);
  EXPECT_EQ(65536, plan.slot_elems());
  for (const PlannedStage& s : plan.stages) {
    EXPECT_EQ(16, s.group) << s.name;
    EXPECT_EQ(1, s.rows_per_block) << s.name;
    EXPECT_EQ(256, s.iterations) << s.name;
  }
  EXPECT_EQ(Fusion::None, plan.stages[0].fused);
  EXPECT_EQ(Fusion::LoadStore, plan.stages[1].fused);
  EXPECT_EQ((StageGeometry{256, 1, 4096, 16, 16}), plan.stages[1].geom);
  o.block_elems = 262144;
  for (const PlannedStage& s : make_stage_plan({idx_t{1} << 24}, o).stages) {
    EXPECT_EQ(16, s.group) << s.name;
  }
  o.block_elems = 131072;
  for (const PlannedStage& s : make_stage_plan({idx_t{1} << 24}, o).stages) {
    EXPECT_EQ(8, s.group) << s.name;
    EXPECT_EQ(2, s.rows_per_block) << s.name;  // still 1 MiB claims
  }
  o.block_elems = 524288;
  o.topo.l2_bytes = 1u << 20;
  const StagePlan small = make_stage_plan({idx_t{1} << 24}, o);
  for (const PlannedStage& s : small.stages) {
    EXPECT_EQ(8, s.group) << s.name;
    EXPECT_EQ(Fusion::None, s.fused) << s.name;  // R = 8 < 16: unfused
  }
}

TEST(StagePlan, MultiDimensionalBenchmarkPlansAreUnchanged) {
  // The benchmark's 256^3 and 4096^2 plans at four threads, the 8 MiB
  // policy block and a 2 MiB L2, field by field: every stage is tiled
  // into 1 MiB claims (half the L2), and 4096^2 widens its packet to 16,
  // where a 4096 x 16 lane row is exactly that budget.
  FftOptions o;
  o.threads = 4;
  o.block_elems = 524288;
  o.topo.l2_bytes = 2u << 20;
  const StagePlan cube = make_stage_plan({256, 256, 256}, o);
  EXPECT_EQ(4, cube.compute_threads);
  EXPECT_EQ(0, cube.data_threads);
  EXPECT_EQ(524288, cube.block_elems);
  EXPECT_EQ(64, cube.mu);
  ASSERT_EQ(3u, cube.stages.size());
  const idx_t cube_rows[3] = {65536, 1024, 1024};
  const idx_t cube_row_elems[3] = {256, 16384, 16384};
  const idx_t cube_lanes[3] = {1, 64, 64};
  for (int i = 0; i < 3; ++i) {
    const PlannedStage& s = cube.stages[i];
    EXPECT_EQ(cube_rows[i], s.rows) << s.name;
    EXPECT_EQ(cube_row_elems[i], s.row_elems) << s.name;
    EXPECT_EQ(256, s.iterations) << s.name;
    EXPECT_EQ(65536, s.rows_per_block * s.row_elems) << s.name;
    EXPECT_EQ(256, s.geom.fft_len) << s.name;
    EXPECT_EQ(cube_lanes[i], s.geom.lanes) << s.name;
  }
  EXPECT_EQ(256, cube.stages[0].geom.a);
  EXPECT_EQ(4, cube.stages[1].geom.a);
  EXPECT_EQ(4, cube.stages[2].geom.b);

  const idx_t mu = 16;
  const StagePlan square = make_stage_plan({4096, 4096}, o);
  EXPECT_EQ(4, square.compute_threads);
  EXPECT_EQ(0, square.data_threads);
  EXPECT_EQ(524288, square.block_elems);
  EXPECT_EQ(mu, square.mu);
  ASSERT_EQ(2u, square.stages.size());
  EXPECT_EQ(4096, square.stages[0].rows);
  EXPECT_EQ(4096, square.stages[0].row_elems);
  EXPECT_EQ(16, square.stages[0].rows_per_block);
  EXPECT_EQ(4096 / mu, square.stages[1].rows);
  EXPECT_EQ(4096 * mu, square.stages[1].row_elems);
  EXPECT_EQ(1, square.stages[1].rows_per_block);
  EXPECT_EQ(65536, square.slot_elems());
  EXPECT_EQ(mu, square.stages[1].geom.lanes);
  EXPECT_EQ(Fusion::LoadStore, square.stages[1].fused);
}

TEST(StagePlan, PacketElemsPinsOnlyTheColumnWidth) {
  FftOptions o;
  o.threads = 4;
  o.topo.l2_bytes = 2u << 20;
  const StagePlan def = make_stage_plan({idx_t{1} << 24}, o);
  EXPECT_EQ(16, def.stages[0].group);  // W: 1 MiB groups, 256 B runs

  // A requested packet pins W; R still comes from the rank rule.
  o.packet_elems = 8;
  const StagePlan pinned = make_stage_plan({idx_t{1} << 24}, o);
  EXPECT_EQ(8, pinned.stages[0].group);
  EXPECT_EQ(def.stages[1].group, pinned.stages[1].group);
  EXPECT_EQ(def.stages[1].rows_per_block, pinned.stages[1].rows_per_block);

  // kBadPlan unless it divides n2 and fits the column cap.
  o.packet_elems = 3;
  EXPECT_THROW(make_stage_plan({idx_t{1} << 24}, o), Error);
  o.packet_elems = 2 * kFourStepMaxCols;
  EXPECT_THROW(make_stage_plan({idx_t{1} << 24}, o), Error);
}

// Installs an ISA override for one scope (requests clamp to the host).
class IsaScope {
 public:
  explicit IsaScope(kernels::Isa isa) { kernels::set_isa_override(isa); }
  ~IsaScope() { kernels::set_isa_override(kernels::Isa::Auto); }
  IsaScope(const IsaScope&) = delete;
  IsaScope& operator=(const IsaScope&) = delete;
};

/// Smallest row count over the stages whose pencils are mu lanes wide.
idx_t min_lane_stage_rows(const StagePlan& plan) {
  idx_t rows = plan.total;
  for (const PlannedStage& s : plan.stages) {
    if (s.geom.lanes > 1) rows = std::min(rows, s.rows);
  }
  return rows;
}

TEST(StagePlan, AutoPacketWidensWhereLaneRowsStayCorePrivate) {
  FftOptions o;
  o.threads = 4;
  o.topo.l2_bytes = 2u << 20;  // budget: 65536 elements
  const idx_t budget = o.topo.core_private_elems();

  // 256^3: a 256 x 64 lane row is well inside the budget, so the packet
  // grows to the widest store run.
  const StagePlan cube = make_stage_plan({256, 256, 256}, o);
  EXPECT_EQ(kMaxPacketElems, cube.mu);

  // 4096^2: a 4096 x 16 lane row is exactly the budget; 8192^2 stops at
  // 8 for the same reason.
  const StagePlan square = make_stage_plan({4096, 4096}, o);
  EXPECT_EQ(16, square.mu);
  EXPECT_EQ(budget, 4096 * square.mu);
  EXPECT_EQ(8, make_stage_plan({8192, 8192}, o).mu);

  // The paper profiles' 256 KiB L2 (8192 elements): 256^3 stops at 32,
  // and 4096^2 keeps the SIMD packet, already past the budget.
  o.topo = machines::kabylake_7700k();
  EXPECT_EQ(32, make_stage_plan({256, 256, 256}, o).mu);
  EXPECT_EQ(resolve_packet_size(0, 4096), make_stage_plan({4096, 4096}, o).mu);
}

TEST(StagePlan, EveryCorePrivateTileFitsTheBudget) {
  // One budget, half the L2, sizes every core-private tile: each lane
  // row (L x mu) and each four-step group (W x n1, R x n2) fits it, or
  // sits at its floor (the SIMD packet, or the cacheline-wide group);
  // every Private claim fits it or is one row.
  const std::vector<std::vector<idx_t>> shapes = {
      {256, 256, 256}, {4096, 4096},     {8192, 8192},
      {idx_t{1} << 20}, {idx_t{1} << 24}, {idx_t{1} << 26}};
  for (std::size_t l2 : {std::size_t{256} << 10, std::size_t{1} << 20,
                         std::size_t{2} << 20}) {
    for (const auto& dims : shapes) {
      FftOptions o;
      o.threads = 4;
      o.topo.l2_bytes = l2;
      const idx_t budget = o.topo.core_private_elems();
      const StagePlan plan = make_stage_plan(dims, o);
      SCOPED_TRACE(::testing::Message()
                   << "l2=" << l2 << " total=" << plan.total
                   << " rank=" << dims.size() << " mu=" << plan.mu);
      for (const PlannedStage& s : plan.stages) {
        EXPECT_TRUE(s.rows_per_block * s.row_elems <= budget ||
                    s.rows_per_block == 1)
            << s.name;
        if (s.kind == StageKind::Rotated && s.geom.lanes > 1) {
          EXPECT_TRUE(s.row_elems <= budget ||
                      plan.mu == resolve_packet_size(0, dims.back()))
              << s.name;
        }
        if (s.kind == StageKind::Columns || s.kind == StageKind::Rows) {
          const idx_t count = s.kind == StageKind::Columns ? plan.n2 : plan.n1;
          idx_t floor = count;
          for (idx_t d = kMu; d < count; ++d) {
            if (count % d == 0) {
              floor = d;
              break;
            }
          }
          EXPECT_TRUE(s.row_elems <= budget || s.group == floor)
              << s.name << " group=" << s.group;
        }
      }
    }
  }
}

TEST(StagePlan, AutoPacketKeepsARowForEveryRank) {
  // 256 x 64 under the even Split: the budget alone would allow mu = 64,
  // i.e. one stage-1 row for four ranks. The rank cap stops at two rows:
  // max(p_c, p_d) = 2.
  FftOptions o;
  o.threads = 4;
  o.compute_threads = 2;
  const StagePlan plan = make_stage_plan({256, 64}, o);
  const idx_t ranks = std::max(plan.compute_threads, plan.data_threads);
  EXPECT_LT(plan.mu, kMaxPacketElems);
  EXPECT_GE(min_lane_stage_rows(plan), ranks);
  EXPECT_LT(min_lane_stage_rows(plan), 2 * ranks);

  // The cap follows the larger role: p_c = 3 leaves three ranks to feed.
  o.compute_threads = 3;
  const StagePlan skewed = make_stage_plan({256, 64}, o);
  EXPECT_GE(min_lane_stage_rows(skewed), 3);
  EXPECT_LT(skewed.mu, plan.mu);

  // A sweep of small shapes and splits: a packet widened past the SIMD
  // packet always leaves every lane stage a row per rank.
  for (const auto& dims : std::vector<std::vector<idx_t>>{
           {16, 16}, {64, 64}, {256, 128}, {16, 16, 16}, {32, 32, 32},
           {16, 32, 64}, {64, 64, 64}}) {
    for (int p : {1, 2, 4, 8}) {
      FftOptions q;
      q.threads = p;
      const StagePlan got = make_stage_plan(dims, q);
      const idx_t simd = resolve_packet_size(0, dims.back());
      const idx_t r = std::max({got.compute_threads, got.data_threads, 1});
      SCOPED_TRACE(::testing::Message() << "dims[0]=" << dims[0]
                                        << " rank=" << dims.size()
                                        << " p=" << p << " mu=" << got.mu);
      EXPECT_GE(got.mu, simd);
      EXPECT_LE(got.mu, std::max(simd, kMaxPacketElems));
      EXPECT_EQ(0, dims.back() % got.mu);
      if (got.mu > simd) {
        EXPECT_GE(min_lane_stage_rows(got), r);
      }
    }
  }
}

TEST(StagePlan, ExplicitPacketIsHonoured) {
  FftOptions o;
  o.threads = 4;
  for (idx_t mu : {idx_t{1}, idx_t{2}, kMu, idx_t{128}}) {
    o.packet_elems = mu;
    EXPECT_EQ(mu, make_stage_plan({256, 256, 256}, o).mu);
    EXPECT_EQ(mu, make_stage_plan({4096, 4096}, o).mu);
  }
  o.packet_elems = 3;
  EXPECT_THROW(make_stage_plan({256, 256, 256}, o), Error);
}

TEST(StagePlan, NarrowDispatchStartsFromTheCachelinePacket) {
  FftOptions o;
  o.threads = 4;
  for (kernels::Isa isa : {kernels::Isa::Avx2, kernels::Isa::Scalar}) {
    IsaScope scope(isa);
    SCOPED_TRACE(kernels::isa_name(isa));
    EXPECT_EQ(kMu, resolve_packet_size(0, 4096));
    // No widening at 4096^2 on a 256 KiB L2: the auto packet is the
    // §III-A cacheline.
    FftOptions paper = o;
    paper.topo = machines::kabylake_7700k();
    EXPECT_EQ(kMu, make_stage_plan({4096, 4096}, paper).mu);
    // The widening rule does not depend on the dispatch.
    o.topo.l2_bytes = 2u << 20;
    EXPECT_EQ(16, make_stage_plan({4096, 4096}, o).mu);
    EXPECT_EQ(kMaxPacketElems, make_stage_plan({256, 256, 256}, o).mu);
  }
}

TEST(StagePlan, RejectsComputeSplitOutsideTheTeam) {
  FftOptions o;
  o.threads = 4;
  o.compute_threads = 5;
  EXPECT_THROW(make_stage_plan({64, 64}, o), Error);
}

TEST(StagePlan, EngineStatsMatchThePlan) {
  // The engine executes the plan: one run's per-stage iteration count and
  // block height must be exactly the plan's — for the rotated 2D/3D
  // stages, the 1D four-step passes and the flat 1D fallback alike.
  struct Case {
    std::vector<idx_t> dims;
    idx_t block;
  };
  for (const Case& c : std::vector<Case>{{{32, 32, 32}, 3000},
                                         {{64, 128}, 3000},
                                         {{4096}, 3000},
                                         {{3 * 1024}, 3000},
                                         {{65536}, 2048},
                                         {{4099}, 3000}}) {  // prime: flat
    FftOptions o;
    o.threads = 2;
    o.block_elems = c.block;
    DoubleBufferEngine engine(c.dims, Direction::Forward, o);
    idx_t total = 1;
    for (idx_t d : c.dims) total *= d;
    SCOPED_TRACE(::testing::Message() << "total=" << total);
    cvec in = random_cvec(total, 77), out(in.size());
    engine.execute(in.data(), out.data());
    const StagePlan& plan = engine.plan();
    ASSERT_EQ(plan.stages.size(), engine.last_stats().size());
    for (std::size_t i = 0; i < plan.stages.size(); ++i) {
      EXPECT_EQ(plan.stages[i].iterations, engine.last_stats()[i].iterations);
      EXPECT_EQ(plan.stages[i].rows_per_block,
                engine.last_stats()[i].block_rows);
      if (plan.stages[i].kind != StageKind::Flat) {
        EXPECT_GT(plan.stages[i].iterations, 1);
      }
    }
  }
}

TEST(StagePlan, DefaultScheduleFollowsTheRank) {
  // Every rank runs Private (p_c = p) by default, the 1D four-step
  // included; an explicit compute_threads is honoured; a lone thread is
  // Private.
  FftOptions o;
  o.threads = 4;
  for (const std::vector<idx_t>& dims :
       {std::vector<idx_t>{256, 256, 256}, std::vector<idx_t>{4096, 4096},
        std::vector<idx_t>{idx_t{1} << 24}}) {
    const StagePlan plan = make_stage_plan(dims, o);
    EXPECT_EQ(4, plan.compute_threads);
    EXPECT_EQ(0, plan.data_threads);
    EXPECT_EQ(Schedule::Private, plan.schedule());
  }

  FftOptions pinned = o;
  pinned.compute_threads = 2;
  EXPECT_EQ(Schedule::Split, make_stage_plan({256, 256, 256}, pinned).schedule());
  EXPECT_EQ(Schedule::Split,
            make_stage_plan({idx_t{1} << 24}, pinned).schedule());
  FftOptions one = o;
  one.threads = 1;
  EXPECT_EQ(Schedule::Private, make_stage_plan({64, 64}, one).schedule());
  EXPECT_STREQ("private", schedule_name(Schedule::Private));
  EXPECT_STREQ("split", schedule_name(Schedule::Split));
}

TEST(StagePlan, FlatRejectsAPinnedPacket) {
  // 17 has no four-step split: the Flat pass has no column group, so a
  // pinned packet is refused like a misfit one on a splittable size.
  FftOptions o;
  o.packet_elems = 3;
  try {
    make_stage_plan({17}, o);
    ADD_FAILURE() << "a pinned packet on a flat plan was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(ErrorCode::kBadPlan, e.code());
  }
  o.packet_elems = 1;
  EXPECT_THROW(make_stage_plan({17}, o), Error);
  o.packet_elems = 0;
  EXPECT_EQ(StageKind::Flat, make_stage_plan({17}, o).stages[0].kind);
}

void expect_same_plan(const StagePlan& want, const StagePlan& got) {
  EXPECT_EQ(want.dims, got.dims);
  EXPECT_EQ(want.total, got.total);
  EXPECT_EQ(want.sockets, got.sockets);
  EXPECT_EQ(want.threads, got.threads);
  EXPECT_EQ(want.compute_threads, got.compute_threads);
  EXPECT_EQ(want.data_threads, got.data_threads);
  EXPECT_EQ(want.block_elems, got.block_elems);
  EXPECT_EQ(want.mu, got.mu);
  EXPECT_EQ(want.n1, got.n1);
  EXPECT_EQ(want.n2, got.n2);
  ASSERT_EQ(want.stages.size(), got.stages.size());
  for (std::size_t i = 0; i < want.stages.size(); ++i) {
    const PlannedStage& a = want.stages[i];
    const PlannedStage& b = got.stages[i];
    SCOPED_TRACE(a.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_STREQ(a.name, b.name);
    EXPECT_EQ(a.geom.a, b.geom.a);
    EXPECT_EQ(a.geom.b, b.geom.b);
    EXPECT_EQ(a.geom.fft_len, b.geom.fft_len);
    EXPECT_EQ(a.geom.lanes, b.geom.lanes);
    EXPECT_EQ(a.geom.mu, b.geom.mu);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.row_elems, b.row_elems);
    EXPECT_EQ(a.rows_per_block, b.rows_per_block);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.nontemporal, b.nontemporal);
    EXPECT_EQ(a.split_b, b.split_b);
  }
}

TEST(StagePlan, OneSocketPlanIsThePlan) {
  // The shapes of TilingInvariantsAcrossShapesThreadsAndBlocks.
  const std::vector<std::vector<idx_t>> shapes = {
      {4096}, {3 * 1024}, {65536}, {65537},
      {64, 64}, {256, 128}, {32, 32, 32}, {16, 32, 64}};
  for (const auto& dims : shapes) {
    for (int threads : {1, 2, 4, 8}) {
      FftOptions o;
      o.threads = threads;
      SCOPED_TRACE(::testing::Message() << "dims[0]=" << dims[0] << " rank="
                                        << dims.size() << " p=" << threads);
      expect_same_plan(make_stage_plan(dims, o), make_stage_plan(dims, o, 1));
    }
  }
}

TEST(StagePlan, SocketPlanSplitsEveryStageOverTheSlabs) {
  // 32x16x64 over sk sockets: the per-socket team, the single-socket
  // packet and block rules at that team size, W^1 on the slab grid, and
  // stages 1 and 2 splitting the cube grid's z and y rows.
  const idx_t k = 32, n = 16, m = 64;
  for (int sk : {2, 4}) {
    FftOptions o;
    o.threads = 8;
    o.packet_elems = 8;
    const StagePlan plan = make_stage_plan({k, n, m}, o, sk);
    FftOptions per_socket = o;
    per_socket.threads = 8 / sk;
    const StagePlan one = make_stage_plan({k, n, m}, per_socket);
    SCOPED_TRACE(::testing::Message() << "sk=" << sk);
    EXPECT_EQ(sk, plan.sockets);
    EXPECT_EQ(8 / sk, plan.threads);
    EXPECT_EQ(one.compute_threads, plan.compute_threads);
    EXPECT_EQ(one.mu, plan.mu);
    EXPECT_EQ(one.block_elems, plan.block_elems);
    ASSERT_EQ(3u, plan.stages.size());
    const idx_t mu = plan.mu;
    EXPECT_EQ(k / sk, plan.stages[0].geom.a);
    EXPECT_EQ((k / sk) * n, plan.stages[0].rows);
    EXPECT_EQ((m / mu) * (k / sk), plan.stages[1].rows);
    EXPECT_EQ((n / sk) * (m / mu), plan.stages[2].rows);
    for (std::size_t i = 0; i < 3; ++i) {
      const PlannedStage& s = plan.stages[i];
      EXPECT_EQ(plan.total, sk * s.rows * s.row_elems) << s.name;
      EXPECT_EQ(s.rows, s.iterations * s.rows_per_block) << s.name;
      EXPECT_EQ(i == 0 ? 1 : sk, slab_runs(s)) << s.name;
      EXPECT_EQ(i == 1, s.split_b) << s.name;
    }
    // Stage 1 rows (xp, zl) of socket s sit at xp*k + s*k/sk + zl of the
    // cube grid; stage 2 rows follow on from s*(n/sk)*(m/mu).
    const idx_t zl = k / sk - 1;
    EXPECT_EQ(2 * k + (sk - 1) * (k / sk) + zl,
              socket_row(plan.stages[1], sk - 1, 2 * (k / sk) + zl));
    EXPECT_EQ((sk - 1) * plan.stages[2].rows + 3,
              socket_row(plan.stages[2], sk - 1, 3));
    EXPECT_EQ(5, socket_row(plan.stages[0], sk - 1, 5));
  }
}

TEST(StagePlan, SocketPlanRejectsIndivisibleShapes) {
  // The socket count must divide k and n of a 3D cube; 1D and 2D plans
  // have no socket split.
  FftOptions o;
  o.threads = 2;
  for (const std::vector<idx_t>& dims :
       {std::vector<idx_t>{3, 4, 4}, std::vector<idx_t>{4, 3, 4},
        std::vector<idx_t>{64, 64}, std::vector<idx_t>{4096}}) {
    try {
      make_stage_plan(dims, o, 2);
      ADD_FAILURE() << "socket plan accepted, dims[0]=" << dims[0]
                    << " rank=" << dims.size();
    } catch (const Error& e) {
      EXPECT_EQ(ErrorCode::kBadPlan, e.code());
    }
  }
  EXPECT_THROW(make_stage_plan({4, 4, 4}, o, 0), Error);
}

TEST(StagePlan, SocketPlanRejectsAThreadCountTheSocketsDoNotDivide) {
  // Each socket runs threads / sk of the team; a count sk does not divide
  // is refused, naming both numbers, instead of quietly dropping threads.
  FftOptions o;
  for (auto [threads, sk] : {std::pair{6, 4}, std::pair{2, 4},
                             std::pair{3, 2}}) {
    o.threads = threads;
    try {
      make_stage_plan({8, 8, 8}, o, sk);
      ADD_FAILURE() << threads << " threads over " << sk << " sockets";
    } catch (const Error& e) {
      EXPECT_EQ(ErrorCode::kBadPlan, e.code());
      const std::string what = e.what();
      EXPECT_NE(std::string::npos,
                what.find(std::to_string(threads) + " threads over " +
                          std::to_string(sk) + " sockets"))
          << what;
    }
  }
  o.threads = 8;
  EXPECT_EQ(2, make_stage_plan({8, 8, 8}, o, 4).threads);
}

TEST(StagePlan, PrivateRotatedStagesFuseTheirClaims) {
  // The load is always fused into a Private Rotated stage; the store too
  // when it is non-temporal and the pencils are contiguous or a lane row
  // is at least kMinFusedStoreLanes wide.
  FftOptions o;
  o.threads = 4;
  const auto fusions = [](const StagePlan& plan) {
    std::vector<Fusion> f;
    for (const PlannedStage& s : plan.stages) f.push_back(s.fused);
    return f;
  };
  using V = std::vector<Fusion>;
  const Fusion LS = Fusion::LoadStore, L = Fusion::Load, N = Fusion::None;
  o.packet_elems = 64;
  EXPECT_EQ((V{LS, LS, LS}), fusions(make_stage_plan({256, 256, 256}, o)));
  o.packet_elems = 8;
  EXPECT_EQ((V{LS, L}), fusions(make_stage_plan({4096, 4096}, o)));
  o.packet_elems = 16;
  EXPECT_EQ((V{LS, LS}), fusions(make_stage_plan({64, 64}, o)));
  o.nontemporal = false;
  EXPECT_EQ((V{L, L}), fusions(make_stage_plan({64, 64}, o)));
  o.nontemporal = true;
  o.packet_elems = 0;
  // Split, the Columns stage and the socket plans are never fused; a
  // Rows stage fuses its gather and store when R >= kMinFusedStoreLanes
  // (2^16: 256 x 256, R = 64 on a 2 MiB L2; 2^26: R = 8) and the store
  // is non-temporal.
  o.compute_threads = 2;
  EXPECT_EQ((V{N, N, N}), fusions(make_stage_plan({64, 64, 64}, o)));
  EXPECT_EQ((V{N, N}), fusions(make_stage_plan({1 << 16}, o)));
  o.compute_threads = -1;
  o.topo.l2_bytes = 2u << 20;
  EXPECT_EQ((V{N, LS}), fusions(make_stage_plan({1 << 16}, o)));
  EXPECT_EQ((V{N, N}), fusions(make_stage_plan({1 << 26}, o)));
  o.nontemporal = false;
  EXPECT_EQ((V{N, N}), fusions(make_stage_plan({1 << 16}, o)));
  o.nontemporal = true;
  EXPECT_EQ((V{N, N, N}), fusions(make_stage_plan({64, 64, 64}, o, 2)));
  // Stage-parallel: the Private claims with temporal stores.
  o.engine = EngineKind::StageParallel;
  EXPECT_EQ((V{L, L, L}), fusions(make_stage_plan({64, 64, 64}, o)));
}

}  // namespace
}  // namespace bwfft
