// StagePlan — the one description of a planned double-buffer transform.
//
// make_stage_plan() resolves the team size p, the compute/data split
// p_c/p_d, the rotation packet mu (2D/3D) or the four-step split n1*n2
// (1D), the per-half pipeline block b, and for every stage how it tiles
// into pipeline blocks, on one socket or per z-slab of a socket plan
// (§IV-B). It is the only place those rules live:
//
//   - DoubleBufferEngine (every StageKind, and the stage-parallel
//     baseline) builds its roles, team, pipeline and stage lambdas from
//     the plan, and DualSocketFft3d builds its groups and stores from the
//     socket plan;
//   - analysis::build_plan_model turns the plan into symbolic windows;
//   - spl::plan_term restates it as the SPL formula of the transform,
//     which bwfft_lint, `bwfft_verify spl` and the tests verify and
//     check against the dense DFT and the engines' output;
//   - tune::estimate_seconds reads p, p_c, b and the four-step groups;
//     tools/bwfft_lint reads p, p_c and b.
//
// Building a plan is a few integer loops: no allocation beyond the stage
// vector, no threads, no twiddles.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "fft/options.h"
#include "fft/stage.h"
#include "pipeline/pipeline.h"

namespace bwfft {

/// Four-step group caps, above the core-private budget that sizes both
/// groups (a W x n1 or R x n2 group within core_private_elems(), so a
/// claim and its Stockham scratch share the L2). The Columns stage keeps
/// a column group's twiddle recurrence in stack arrays of
/// kFourStepMaxCols entries; 32 columns make each strided access a 512 B
/// run. kFourStepMaxRows bounds R, the Rows stage's NT store run (at most
/// 2 KiB) and the lanes of its n2 x R tile.
constexpr idx_t kFourStepMaxCols = 32;
constexpr idx_t kFourStepMaxRows = 128;

/// Widest auto rotation packet: a 1 KiB NT store run.
constexpr idx_t kMaxPacketElems = 64;

/// Narrowest lane row (lanes = mu, or R on a Rows stage) whose fused
/// claims stream their packets from the last Stockham level: a 256 B NT
/// run. At mu = 8
/// (4096^2) load-only fusion was faster (EXPERIMENTS.md, "Fused claims").
constexpr idx_t kMinFusedStoreLanes = 16;

enum class StageKind {
  Rotated,  ///< batch FFT over the rows of `geom`, then the rotation
  Columns,  ///< four-step column pass (DFT_{n1} (x) I_{n2}), then D; in place
  Rows,     ///< four-step row pass (I_{n1} (x) DFT_{n2}), then L
  Flat,     ///< one untiled 1D pass (no four-step split, or stage-parallel)
};

/// One stage tiled into pipeline blocks. A "row" is the stage's tiling
/// unit: a row of the rotation grid, a group of `group` columns (an
/// n1 x W tile) or a group of `group` rows (an R x n2 tile). A Rows
/// stage is a rotated lane stage too: geom is {n1/R, 1, n2, R, R}, whose
/// rotation stores tile row q of group g at q * n1 + g * R (the final L);
/// only its load differs, transposing the group's R rows into the tile.
/// In a socket plan `rows` is one socket's share. Stage 0 (W^1) rotates
/// the socket's slab, so geom is the slab's grid; stages 1 and 2 (W^2,
/// W^3) keep the cube's grid, whose b (z, split_b) or a (y) dimension the
/// sockets split.
struct PlannedStage {
  StageKind kind = StageKind::Rotated;
  const char* name = "";  ///< obs slice and verifier label
  StageGeometry geom;     ///< rotation grid (Rotated and Rows stages)
  idx_t group = 1;        ///< four-step group width W or height R
  idx_t rows = 1;
  idx_t row_elems = 1;
  idx_t rows_per_block = 1;  ///< a block (Split) or a claim (Private)
  idx_t iterations = 1;   ///< rows / rows_per_block: blocks or claims
  bool nontemporal = true;
  bool split_b = false;   ///< socket plans: the sockets split geom.b
  Fusion fused = Fusion::None;  ///< data tasks folded into the compute

  bool operator==(const PlannedStage&) const = default;
};

/// Slabs a row's packets land in: 1 when stores stay in the storing
/// socket's slab, sk on an exchange stage (runs of cp/sk packets).
inline idx_t slab_runs(const PlannedStage& s) {
  return s.geom.rows() / s.rows;
}

/// The row of geom's grid that is socket `socket`'s local row r.
inline idx_t socket_row(const PlannedStage& s, int socket, idx_t r) {
  const idx_t sk = slab_runs(s);
  if (sk == 1) return r;
  if (!s.split_b) return socket * s.rows + r;
  const idx_t w = s.geom.b / sk;
  return (r / w) * s.geom.b + socket * w + r % w;
}

/// How the team runs a tiled stage (pipeline/pipeline.h). Split is the
/// paper's roles: p_c compute threads overlap the p_d data threads'
/// loads and stores under the Table II step barrier. Private has no data
/// threads: each thread takes claims (whole runs of rows within the
/// core-private budget, MachineTopology::core_private_elems) from the
/// stage's work counter, loads, transforms and stores each on its own
/// tile, and the team meets once per stage.
enum class Schedule { Split, Private };

const char* schedule_name(Schedule s);

struct StagePlan {
  std::vector<idx_t> dims;
  idx_t total = 1;
  int sockets = 1;          ///< sk: pipeline groups, one z-slab each
  int threads = 1;          ///< p, per socket (the team is p * sk)
  int compute_threads = 1;  ///< p_c
  int data_threads = 0;     ///< p_d = p - p_c
  idx_t block_elems = 1;    ///< per-half block b, >= every stage's widest row
  idx_t mu = 1;             ///< rotation packet (2D/3D), see make_stage_plan
  idx_t n1 = 1, n2 = 1;     ///< 1D four-step split (n1 == 1: the flat pass)
  std::vector<PlannedStage> stages;

  /// Derived from the split: p_d = 0 runs Private (a lone thread too).
  Schedule schedule() const {
    return data_threads == 0 ? Schedule::Private : Schedule::Split;
  }

  /// Bytes one execute loads, and the same count it stores: every stage
  /// reads and writes each of its rows once, on every socket.
  idx_t expected_bytes() const {
    idx_t elems = 0;
    for (const PlannedStage& s : stages) elems += s.rows * s.row_elems;
    return elems * sockets * static_cast<idx_t>(sizeof(cplx));
  }

  /// Elements of one pipeline buffer slot: the block b (one shared half)
  /// under Split, the largest claim (one thread's tile) under Private.
  idx_t slot_elems() const {
    if (schedule() == Schedule::Split) return block_elems;
    idx_t claim = 1;
    for (const PlannedStage& s : stages) {
      claim = std::max(claim, s.rows_per_block * s.row_elems);
    }
    return claim;
  }
};

/// The default p_c for a team of p threads: p, the Private schedule, for
/// every rank. This host class has no SMT siblings for data threads, and
/// DRAM bandwidth grows with the cores that issue requests. Split (p_c <
/// p) runs only when compute_threads asks for it.
inline int default_compute_threads(int p) { return p; }

/// Resolve the 1D four-step split n = n1 * n2: a requested n1 is honoured
/// (kBadPlan unless it divides n), 0 picks the near-square split (the
/// largest divisor n1 <= sqrt(n), so n1 <= n2), and an n with no divisor
/// in [2, sqrt(n)] yields {1, n}.
std::pair<idx_t, idx_t> four_step_factors(idx_t n, idx_t requested_n1);

/// Plan dims (size 1, 2 or 3, slowest first) under opts. One budget
/// sizes every core-private tile: c = topo.core_private_elems(), half a
/// core's L2, so a tile and the Stockham scratch of its transform share
/// the L2. 2D/3D plans are the rotated stage chain of fft/stage.h. Their
/// packet mu is opts.packet_elems when set; auto starts from the SIMD
/// packet (resolve_packet_size) and doubles while the wider packet
/// divides the fast dimension, stays within kMaxPacketElems, keeps every
/// lane-stage row (L x mu) within c and leaves every lane stage at least
/// max(p_c, p_d) rows: the rotation then stores long NT runs wherever the
/// lanes transform stays core-private. 1D plans are the two four-step
/// passes, whose column width W (pinned by packet_elems when set) and row
/// height R are the widest groups within c (W x n1, R x n2) that still
/// give every rank one per block, but at least a cacheline (kMu) wide, or
/// one Flat stage on a single thread when n does not split (a pinned
/// packet_elems has no column group to pin there and is kBadPlan). p_c is
/// opts.compute_threads when set, else default_compute_threads. Under
/// Private (p_c = p) every stage is tiled into claims instead of blocks:
/// the most whole rows within min(b, c) elements and within rows / p (so
/// every thread has a claim), but at least one row. Private stages of a
/// one-socket plan fuse their claims' data tasks into the compute
/// (PlannedStage::fused). A Rotated stage always fuses the load, and the
/// store too when it is non-temporal and either the pencils are
/// contiguous (lanes = 1) or a lane row is at least kMinFusedStoreLanes
/// wide (at mu = 8 the 128 B packets lost to load-only fusion). A Rows
/// stage fuses both (its transposing gather moves into the compute and
/// its last level streams the R-element runs) under the same store rule,
/// R >= kMinFusedStoreLanes, and neither otherwise; Columns never fuses.
/// EngineKind::StageParallel plans the same 2D/3D stages as Private
/// claims with temporal stores whatever compute_threads and nontemporal
/// ask for, and every 1D size as the one Flat stage (factor_n1 unread);
/// no other engine kind is consulted. sockets = sk > 1
/// plans the dual-socket chain (Table III) of a 3D cube whose k and n sk
/// divides, for p/sk threads per socket (kBadPlan unless the thread
/// count is a positive multiple of sk). Throws kBadPlan on options no
/// engine can run.
StagePlan make_stage_plan(const std::vector<idx_t>& dims,
                          const FftOptions& opts, int sockets = 1);

}  // namespace bwfft
