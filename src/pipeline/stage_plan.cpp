#include "pipeline/stage_plan.h"

#include <algorithm>
#include <string>
#include <tuple>

#include "common/error.h"
#include "pipeline/pipeline.h"

namespace bwfft {

namespace {

/// Group size g of a four-step stage that tiles `count` units of `len`
/// elements (W of the n2 columns, each n1 long, or R of the n1 rows, each
/// n2 long): the largest divisor of count (at most cap, and with g x len
/// within the core-private `budget`) whose g x len groups still fill a
/// block with at least `ranks` of them, so every rank gets a group. g
/// never drops below the smallest divisor that fills a cacheline (kMu
/// elements): the strided side of the stage moves g-element runs, and a
/// partial-line NT run costs several times its bytes.
idx_t pick_group(idx_t count, idx_t len, idx_t cap, idx_t block,
                 idx_t ranks, idx_t budget) {
  const idx_t widest = std::min(cap, count);
  idx_t lo = 1;
  for (idx_t d = 2; d <= widest && lo < kMu; ++d) {
    if (count % d == 0) lo = d;
  }
  for (idx_t g = std::min(widest, budget / len); g > lo; --g) {
    const idx_t fit = block / (g * len);
    if (count % g == 0 && fit >= ranks &&
        rows_per_block(count / g, fit) >= ranks) {
      return g;
    }
  }
  return lo;
}

/// The block that holds, besides `block`, the fewest g x len groups (a
/// divisor of count / g) that cover every rank: the cacheline floor of
/// pick_group can leave fewer groups per block than ranks.
idx_t covering_block(idx_t count, idx_t g, idx_t len, idx_t ranks,
                     idx_t block) {
  idx_t groups = std::min(ranks, count / g);
  while ((count / g) % groups != 0) ++groups;
  return std::max(block, groups * g * len);
}

/// The rotated stage chain of a 2D/3D shape at packet mu.
std::vector<StageGeometry> rotated_stages(const std::vector<idx_t>& dims,
                                          idx_t mu) {
  if (dims.size() == 2) {
    const auto s = make_2d_stages(dims[0], dims[1], mu);
    return {s.begin(), s.end()};
  }
  const auto s = make_3d_stages(dims[0], dims[1], dims[2], mu);
  return {s.begin(), s.end()};
}

/// Auto rotation packet (rule at make_stage_plan). A lane stage is one
/// whose pencils are mu lanes wide; its row must fit the core-private
/// `budget`, and holding `ranks` rows there lets ThreadTeam::chunk hand
/// every compute and data rank a row.
idx_t pick_packet(const std::vector<idx_t>& dims, idx_t ranks,
                  idx_t budget) {
  const idx_t m = dims.back();
  const auto fits = [&](idx_t mu) {
    for (const StageGeometry& g : rotated_stages(dims, mu)) {
      if (g.lanes > 1 && (g.row_elems() > budget || g.rows() < ranks)) {
        return false;
      }
    }
    return true;
  };
  idx_t mu = resolve_packet_size(0, m);
  while (2 * mu <= kMaxPacketElems && m % (2 * mu) == 0 && fits(2 * mu)) {
    mu *= 2;
  }
  return mu;
}

PlannedStage tiled(StageKind kind, const char* name, idx_t rows,
                   idx_t row_elems, idx_t block, bool nt) {
  PlannedStage s;
  s.kind = kind;
  s.name = name;
  s.rows = rows;
  s.row_elems = row_elems;
  s.rows_per_block = rows_per_block(rows, block / row_elems);
  s.iterations = rows / s.rows_per_block;
  s.nontemporal = nt;
  return s;
}

}  // namespace

const char* schedule_name(Schedule s) {
  return s == Schedule::Private ? "private" : "split";
}

std::pair<idx_t, idx_t> four_step_factors(idx_t n, idx_t requested_n1) {
  BWFFT_CHECK(n >= 1, "transform size must be positive");
  if (requested_n1 > 0) {
    BWFFT_CHECK(n % requested_n1 == 0,
                "factor_n1 must divide the transform size");
    return {requested_n1, n / requested_n1};
  }
  idx_t n1 = 1;
  // Near-square: the largest divisor n1 <= sqrt(n), so n1 <= n2 and both
  // passes run ~sqrt(n)-point FFTs whose n1 x W and R x n2 groups
  // (pick_group) fit the core-private budget and each rank's share of
  // the block.
  for (idx_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) n1 = d;
  }
  return {n1, n / n1};
}

StagePlan make_stage_plan(const std::vector<idx_t>& dims,
                          const FftOptions& opts, int sockets) {
  BWFFT_CHECK(dims.size() >= 1 && dims.size() <= 3,
              "only 1D, 2D and 3D transforms are supported");
  BWFFT_CHECK(sockets == 1 ||
                  (sockets > 1 && dims.size() == 3 && dims[0] % sockets == 0 &&
                   dims[1] % sockets == 0),
              "sockets must be 1 or divide k and n of a 3D cube");
  StagePlan plan;
  plan.dims = dims;
  plan.sockets = sockets;
  for (idx_t d : dims) {
    BWFFT_CHECK(d >= 1, "dimensions must be positive");
    plan.total *= d;
  }

  // A socket plan splits the team evenly over the sockets.
  const int team = resolved_threads(opts);
  BWFFT_CHECK(sockets == 1 || (team >= sockets && team % sockets == 0),
              "a socket plan needs a positive multiple of the socket count "
              "in threads: " + std::to_string(team) + " threads over " +
                  std::to_string(sockets) + " sockets");
  const int p = team / sockets;
  // The stage-parallel baseline is the Private claim plan with temporal
  // stores: every thread on every task, no NT stores.
  const bool stage_parallel = opts.engine == EngineKind::StageParallel;
  const int pc = stage_parallel              ? p
                 : opts.compute_threads >= 0 ? opts.compute_threads
                                             : default_compute_threads(p);
  BWFFT_CHECK(p >= 1 && pc >= 0 && pc <= p,
              "compute_threads outside [0, threads]");
  plan.threads = p;
  plan.compute_threads = pc;
  plan.data_threads = p - pc;

  // The §IV-A buffer policy, raised below to hold every stage's widest row.
  idx_t block = opts.block_elems > 0 ? opts.block_elems
                                     : default_block_elems(opts.topo);
  const bool nt = opts.nontemporal && !stage_parallel;
  // The 1D column and row groups and the rotation packet are sized so
  // that every rank of either role gets a row, and so that each fits the
  // one core-private budget, as every Private claim does.
  const idx_t ranks = std::max({pc, p - pc, 1});
  const idx_t core = opts.topo.core_private_elems();

  if (dims.size() == 1) {
    const idx_t n = dims[0];
    // The 1D stage-parallel baseline is the flat pass at any size.
    std::tie(plan.n1, plan.n2) = stage_parallel
                                     ? std::pair<idx_t, idx_t>{1, n}
                                     : four_step_factors(n, opts.factor_n1);
    if (plan.n1 <= 1) {
      // No split: one flat single-threaded pass over the array, which has
      // no column group for a pinned packet to size.
      BWFFT_CHECK(opts.packet_elems <= 0,
                  "packet_elems needs a four-step split; this size runs "
                  "one flat pass");
      plan.n1 = 1;
      plan.n2 = n;
      plan.threads = plan.compute_threads = 1;
      plan.data_threads = 0;
      plan.block_elems = n;
      plan.stages = {tiled(StageKind::Flat, "flat", 1, n, n, false)};
      return plan;
    }
    const idx_t n1 = plan.n1, n2 = plan.n2;
    // W and R are sized alike, within the core-private budget, so every
    // rank gets a group of both stages; a requested packet_elems pins W
    // (kBadPlan unless it divides n2 within the column cap: the tuner
    // never enumerates a misfit).
    // When a pinned W or the cacheline floor leaves fewer groups than
    // ranks, the block grows to cover them.
    BWFFT_CHECK(opts.packet_elems <= 0 ||
                    (opts.packet_elems <= kFourStepMaxCols &&
                     n2 % opts.packet_elems == 0),
                "packet_elems must divide the four-step row length n2");
    const idx_t w = opts.packet_elems > 0
                        ? opts.packet_elems
                        : pick_group(n2, n1, kFourStepMaxCols, block, ranks,
                                     core);
    const idx_t r =
        pick_group(n1, n2, kFourStepMaxRows, block, ranks, core);
    block = covering_block(n2, w, n1, ranks, block);
    block = covering_block(n1, r, n2, ranks, block);
    plan.stages = {
        tiled(StageKind::Columns, "large1d-cols", n2 / w, n1 * w, block, nt),
        tiled(StageKind::Rows, "large1d-rows", n1 / r, r * n2, block, nt)};
    plan.stages[0].group = w;
    plan.stages[1].group = r;
    // Rows rotates each R x n2 group's n2 x R tile: packet q (R elements)
    // of group g lands at q * n1 + g * R.
    plan.stages[1].geom = StageGeometry{n1 / r, 1, n2, r, r};
  } else {
    plan.mu = opts.packet_elems > 0
                  ? resolve_packet_size(opts.packet_elems, dims.back())
                  : pick_packet(dims, ranks, core);
    const std::vector<StageGeometry> geoms = rotated_stages(dims, plan.mu);
    static constexpr const char* kNames[3] = {"stage-0", "stage-1",
                                              "stage-2"};
    for (const StageGeometry& g : geoms) block = std::max(block, g.row_elems());
    for (std::size_t i = 0; i < geoms.size(); ++i) {
      // W^1 rotates each socket's own slab; the exchange stages keep the
      // cube's grid, and each socket takes 1/sk of its rows.
      StageGeometry g = geoms[i];
      if (i == 0) g.a /= sockets;
      const idx_t rows = i == 0 ? g.rows() : g.rows() / sockets;
      plan.stages.push_back(tiled(StageKind::Rotated, kNames[i], rows,
                                  g.row_elems(), block, nt));
      plan.stages.back().geom = g;
      plan.stages.back().split_b = sockets > 1 && i == 1;
    }
  }
  plan.block_elems = block;
  if (plan.schedule() == Schedule::Private) {
    // Private: a pipeline block is a claim, the largest whole run of
    // stage rows within the core-private budget (never less than a row),
    // which one thread loads, transforms and stores on its own tile. A
    // stage too small to fill p claims of that size is cut into p, so
    // every thread has one.
    const idx_t budget = std::min(block, core);
    for (PlannedStage& s : plan.stages) {
      const idx_t fit = std::min(budget / s.row_elems, s.rows / p);
      s.rows_per_block = rows_per_block(s.rows, std::max<idx_t>(fit, 1));
      s.iterations = s.rows / s.rows_per_block;
      // Fused claims: the first Stockham level reads the source (a Rows
      // claim transposes it into the tile first), and the last one
      // streams each packet to its rotated place where the NT runs are
      // long enough to pay for the per-packet codelet calls.
      if (sockets > 1 || s.kind == StageKind::Columns) continue;
      const idx_t lanes = s.geom.lanes;
      const bool wide = lanes >= kMinFusedStoreLanes;
      if (s.kind == StageKind::Rotated) {
        s.fused = s.nontemporal && (lanes == 1 || wide) ? Fusion::LoadStore
                                                        : Fusion::Load;
      } else if (s.kind == StageKind::Rows && s.nontemporal && wide) {
        s.fused = Fusion::LoadStore;
      }
    }
  }
  return plan;
}

}  // namespace bwfft
