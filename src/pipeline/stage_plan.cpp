#include "pipeline/stage_plan.h"

#include <algorithm>
#include <tuple>

#include "common/error.h"
#include "pipeline/pipeline.h"

namespace bwfft {

namespace {

/// Row-length ceiling: n2 is kept small enough that one row (plus its
/// Stockham ping-pong scratch) stays cache-resident during the row pass.
constexpr idx_t kMaxRowFitElems = 65536;

/// Column-group width W: the caller's packet_elems when it fits (kBadPlan
/// otherwise — the tuner never enumerates a misfit), else the largest
/// divisor of n2 within the block budget, pushed toward
/// kFourStepMaxCols so the strided side of the column pass moves long
/// runs.
idx_t pick_cols(idx_t n2, idx_t block_budget, idx_t requested) {
  if (requested > 0) {
    BWFFT_CHECK(requested <= kFourStepMaxCols && n2 % requested == 0,
                "packet_elems must divide the four-step row length n2");
    return requested;
  }
  const idx_t hi = std::min(kFourStepMaxCols, n2);
  const idx_t lo = std::min<idx_t>(4, hi);
  return rows_per_block(n2, std::clamp(block_budget, lo, hi));
}

/// Row-group height R: the largest divisor of n1 (at most
/// kFourStepMaxRows) whose R x n2 groups still fill a block with at least
/// `ranks` of them, so ThreadTeam::chunk hands every compute and data
/// rank a group. R never drops below the smallest divisor that fills a
/// cacheline (kMu elements): the store writes R-element NT runs, and a
/// partial-line NT run costs several times its bytes.
idx_t pick_rows(idx_t n1, idx_t n2, idx_t block, idx_t ranks) {
  const idx_t hi = std::min(kFourStepMaxRows, n1);
  idx_t lo = 1;
  for (idx_t d = 2; d <= hi && lo < kMu; ++d) {
    if (n1 % d == 0) lo = d;
  }
  for (idx_t r = hi; r > lo; --r) {
    const idx_t budget = block / (r * n2);
    if (n1 % r == 0 && budget >= ranks &&
        rows_per_block(n1 / r, budget) >= ranks) {
      return r;
    }
  }
  return lo;
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
/// whose pencils are mu lanes wide; holding `ranks` rows there lets
/// ThreadTeam::chunk hand every compute and data rank a row.
idx_t pick_packet(const std::vector<idx_t>& dims, idx_t ranks) {
  const idx_t m = dims.back();
  const auto fits = [&](idx_t mu) {
    for (const StageGeometry& g : rotated_stages(dims, mu)) {
      if (g.lanes > 1 &&
          (g.row_elems() > kCoreTileElems || g.rows() < ranks)) {
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
  // Skewed default: the largest divisor of n that keeps the column tile
  // core-private (n1 <= ~kCoreTileElems / W) while capping the row
  // length (n2 <= kMaxRowFitElems once n is big enough to force it).
  // Measured against near-square splits this is 15-30% faster across
  // 2^22..2^26: short column FFTs run in L2 and the long n2 rows stay
  // contiguous. Below n ~ 2^18 the sqrt bound takes over and the split
  // degrades gracefully to near-square (n1 <= n2).
  idx_t root = 1;
  while ((root + 1) * (root + 1) <= n) ++root;
  const idx_t target =
      std::min(std::max<idx_t>(kCoreTileElems / kFourStepMaxCols,
                               n / kMaxRowFitElems),
               root);
  for (idx_t d = std::min(target, n / 2); d >= 2; --d) {
    if (n % d == 0) return {d, n / d};
  }
  return {1, n};
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

  // A socket plan splits the team evenly, at least one thread a socket.
  const int p = sockets == 1 ? resolved_threads(opts)
                             : std::max(1, resolved_threads(opts) / sockets);
  const int pc = opts.compute_threads >= 0
                     ? opts.compute_threads
                     : default_compute_threads(p, dims.size());
  BWFFT_CHECK(p >= 1 && pc >= 0 && pc <= p,
              "compute_threads outside [0, threads]");
  plan.threads = p;
  plan.compute_threads = pc;
  plan.data_threads = p - pc;

  // The §IV-A buffer policy, raised below to hold every stage's widest row.
  idx_t block = opts.block_elems > 0 ? opts.block_elems
                                     : default_block_elems(opts.topo);
  const bool nt = opts.nontemporal;
  // Both the 1D row groups and the rotation packet are sized so that
  // every rank of either role gets a row.
  const idx_t ranks = std::max({pc, p - pc, 1});

  if (dims.size() == 1) {
    const idx_t n = dims[0];
    std::tie(plan.n1, plan.n2) = four_step_factors(n, opts.factor_n1);
    if (plan.n1 <= 1) {
      // No usable split: one flat single-threaded pass over the array,
      // which has no column group for a pinned packet to size.
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
    const idx_t w = pick_cols(n2, block / n1, opts.packet_elems);
    // R ignores packet_elems: it is sized so every rank of both roles
    // gets a row group. When the cacheline floor leaves fewer groups than
    // ranks, the block grows to the fewest groups (a divisor of n1 / R)
    // that cover every rank.
    const idx_t r = pick_rows(n1, n2, block, ranks);
    idx_t groups = std::min(ranks, n1 / r);
    while ((n1 / r) % groups != 0) ++groups;
    block = std::max({block, n1 * w, groups * r * n2});
    plan.stages = {
        tiled(StageKind::Columns, "large1d-cols", n2 / w, n1 * w, block, nt),
        tiled(StageKind::Rows, "large1d-rows", n1 / r, r * n2, block, nt)};
    plan.stages[0].group = w;
    plan.stages[1].group = r;
  } else {
    plan.mu = opts.packet_elems > 0
                  ? resolve_packet_size(opts.packet_elems, dims.back())
                  : pick_packet(dims, ranks);
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
  return plan;
}

}  // namespace bwfft
