#include "fft/double_buffer.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "analysis/hazard_checker.h"
#include "common/error.h"
#include "common/timer.h"
#include "kernels/batch.h"
#include "kernels/twiddle.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

namespace {

/// Refresh the column-pass twiddle recurrence with an exactly computed
/// root every this many steps, bounding the multiplicative drift to ~128
/// eps (well under the transform's own O(sqrt(log n)) rounding growth).
constexpr idx_t kTwiddleRefresh = 128;

/// Strided column-pass reads walk n1 addresses a full row apart — a
/// pattern no hardware prefetcher follows — so the gather issues its own
/// prefetches this many rows ahead.
constexpr idx_t kPrefetchRows = 8;

}  // namespace

PipelineStage make_rotated_stage(const PlannedStage& s, const Fft1d& fft,
                                 const cplx* src, cplx* dst) {
  const StageGeometry g = s.geom;
  const idx_t block_rows = s.rows_per_block;
  const idx_t row_elems = s.row_elems;
  const bool nt = s.nontemporal;
  PipelineStage stage =
      make_row_stage(src, fft, g.lanes, block_rows, row_elems, s.iterations);
  // A Rows stage (the four-step's I_{n1} (x) DFT_{n2}, then L) reads each
  // row group's R contiguous rows into a q-major n2 x R tile through the
  // SIMD block transpose, which folds L into the load (the paper's
  // L (x) I_mu data movement, §III-A); its rotation then stores tile row
  // q as one R-element run at q * n1 + row0.
  const bool transposes = s.kind == StageKind::Rows;
  const kernels::Isa isa = fft.isa();
  const auto gather = [=](idx_t row0, idx_t count, cplx* buf) {
    const kernels::BatchTable& bt = kernels::dispatch_batch_table(isa);
    for (idx_t r = 0; r < count; ++r) {
      bt.transpose(src + (row0 + r) * row_elems, g.fft_len,
                   buf + r * row_elems, g.lanes, g.lanes, g.fft_len);
    }
  };
  if (transposes) {
    stage.load = [=](idx_t i, cplx* buf, int rank, int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      if (r1 <= r0) return;
      gather(i * block_rows + r0, r1 - r0, buf + r0 * row_elems);
      BWFFT_OBS_COUNT(BytesLoaded, (r1 - r0) * row_elems * sizeof(cplx));
    };
  }
  // W_{b,i}: scatter the block through the blocked rotation with
  // non-temporal stores (the data is dead until the next stage).
  stage.store = [=](idx_t i, const cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) {
      rotate_store_rows(buf + r0 * row_elems, dst, i * block_rows + r0,
                        r1 - r0, g.a, g.b, g.cp(), g.mu, nt);
      BWFFT_OBS_COUNT(BytesStored, (r1 - r0) * row_elems * sizeof(cplx));
    }
  };
  if (s.fused == Fusion::None) return stage;
  // A fused claim (always run whole, rank 0 of 1): the sweep reads the
  // claim's rows straight from src (a Rows claim first gathers them into
  // the tile), and where dst takes streaming stores its last level writes
  // them to their rotated places, leaving no store task; otherwise the
  // result lands on the tile for the store above.
  const RotatedDst rot{dst, g.rows(), 0, g.mu};
  const bool streams = s.fused == Fusion::LoadStore &&
                       fft.streams_rotated(g.lanes, block_rows, rot);
  const idx_t claim_bytes =
      block_rows * row_elems * static_cast<idx_t>(sizeof(cplx));
  stage.load = nullptr;
  stage.compute = [=, &fft](idx_t i, cplx* buf, int, int) {
    RotatedDst to = rot;
    to.row0 = i * block_rows;
    const cplx* from = src + to.row0 * row_elems;
    if (transposes) {
      gather(to.row0, block_rows, buf);
      from = buf;
    }
    fft.apply_lanes_from(from, buf, g.lanes, block_rows,
                         streams ? &to : nullptr);
    BWFFT_OBS_COUNT(BytesLoaded, claim_bytes);
    if (streams) BWFFT_OBS_COUNT(BytesStored, claim_bytes);
  };
  if (streams) stage.store = nullptr;
  return stage;
}

PipelineStage make_row_stage(const cplx* src, const Fft1d& fft, idx_t lanes,
                             idx_t block_rows, idx_t row_elems,
                             idx_t iterations) {
  PipelineStage stage;
  stage.iterations = iterations;
  // R_{b,i}: stream block i's rows into the buffer half. The stores are
  // temporal on purpose — the compute threads read them next iteration.
  stage.load = [=](idx_t i, cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) {
      std::memcpy(buf + r0 * row_elems,
                  src + (i * block_rows + r0) * row_elems,
                  static_cast<std::size_t>((r1 - r0) * row_elems) *
                      sizeof(cplx));
      BWFFT_OBS_COUNT(BytesLoaded, (r1 - r0) * row_elems * sizeof(cplx));
    }
  };
  // Compute kernel: I_{rows} (x) DFT_L (x) I_lanes, in place on the half.
  stage.compute = [=, &fft](idx_t, cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) fft.apply_lanes(buf + r0 * row_elems, lanes, r1 - r0);
  };
  return stage;
}

DoubleBufferEngine::DoubleBufferEngine(std::vector<idx_t> dims, Direction dir,
                                       const FftOptions& opts)
    : dir_(dir), opts_(opts), plan_(make_stage_plan(dims, opts)) {
  // One Fft1d per stage: the rotated pencil length, n1 for the column
  // pass, n2 for the row pass (n2 = n on the flat path).
  for (const PlannedStage& s : plan_.stages) {
    const idx_t len = s.kind == StageKind::Rotated   ? s.geom.fft_len
                      : s.kind == StageKind::Columns ? plan_.n1
                                                     : plan_.n2;
    ffts_.push_back(std::make_shared<Fft1d>(len, dir_, opts_.isa));
  }
  // A Flat plan (no four-step split, or 1D stage-parallel): one pass on
  // the caller. Still a valid plan — the facade must not reject sizes the
  // tuner or exec layer routes here.
  if (plan_.stages[0].kind == StageKind::Flat) return;
  if (dims.size() == 1) {
    col_roots_ = root_table(plan_.total, plan_.n2, dir_);
  } else if (dims.size() == 2) {
    work_ = AlignedBuffer<cplx>(static_cast<std::size_t>(plan_.total),
                                AllocPlacement::HugePage);
  }
  roles_ = make_role_plan(plan_.threads, plan_.compute_threads, opts_.topo);
  team_ = parallel::make_team(
      plan_.threads, opts_.pin_threads ? roles_.cpu : std::vector<int>{},
      opts_.team_pool);
  pipeline_ =
      std::make_unique<DoubleBufferPipeline>(*team_, roles_, plan_.slot_elems());
}

PipelineStage DoubleBufferEngine::make_stage(std::size_t k, const cplx* src,
                                             cplx* dst) const {
  const PlannedStage& s = plan_.stages[k];
  const Fft1d& fft = *ffts_[k];
  const idx_t row_elems = s.row_elems;
  const idx_t block_rows = s.rows_per_block;
  const bool nt = s.nontemporal;

  PipelineStage stage;
  stage.iterations = s.iterations;
  switch (s.kind) {
    case StageKind::Rotated:
    case StageKind::Rows:
      stage = make_rotated_stage(s, fft, src, dst);
      break;
    case StageKind::Columns: {
      // (DFT_{n1} (x) I_{n2}) then D_{n2}^{n1 n2}, tiled over groups of W
      // contiguous columns. Tiles are row-major n1 x W, so the strided
      // side of the loads and stores moves W-element (up to 512 B)
      // contiguous runs and the lanes kernel sweeps W-wide SIMD rows.
      const idx_t n = plan_.total, n1 = plan_.n1, n2 = plan_.n2;
      const idx_t W = s.group;
      stage.load = [=](idx_t i, cplx* buf, int rank, int parts) {
        auto [g0, g1] = ThreadTeam::chunk(block_rows, parts, rank);
        for (idx_t g = g0; g < g1; ++g) {
          const idx_t col0 = (i * block_rows + g) * W;
          cplx* tile = buf + g * row_elems;
          for (idx_t r = 0; r < n1; ++r) {
            if (r + kPrefetchRows < n1) {
              const char* next = reinterpret_cast<const char*>(
                  src + (r + kPrefetchRows) * n2 + col0);
              for (idx_t b = 0; b < W * static_cast<idx_t>(sizeof(cplx));
                   b += 64) {
                __builtin_prefetch(next + b, 0, 0);
              }
            }
            std::memcpy(tile + r * W, src + r * n2 + col0,
                        static_cast<std::size_t>(W) * sizeof(cplx));
          }
        }
        if (g1 > g0) {
          BWFFT_OBS_COUNT(BytesLoaded, (g1 - g0) * row_elems * sizeof(cplx));
        }
      };
      stage.compute = [=, this, &fft](idx_t i, cplx* buf, int rank,
                                      int parts) {
        auto [g0, g1] = ThreadTeam::chunk(block_rows, parts, rank);
        if (g1 <= g0) return;
        fft.apply_lanes(buf + g0 * row_elems, W, g1 - g0);
        // Twiddle scale D: element (r, q) *= w_N^{r q}. All W columns step
        // their geometric recurrence together through the SIMD diagonal
        // kernel; each kTwiddleRefresh-row chunk re-anchors the recurrence
        // to exactly computed roots to bound drift.
        cplx w[kFourStepMaxCols], step[kFourStepMaxCols];
        for (idx_t g = g0; g < g1; ++g) {
          cplx* tile = buf + g * row_elems;
          const idx_t col0 = (i * block_rows + g) * W;
          for (idx_t l = 0; l < W; ++l) {
            step[l] = col_roots_[static_cast<std::size_t>(col0 + l)];
          }
          for (idx_t r0 = 0; r0 < n1; r0 += kTwiddleRefresh) {
            for (idx_t l = 0; l < W; ++l) {
              w[l] = root_of_unity(n, (r0 * (col0 + l)) % n, dir_);
            }
            kernels::diag_scale_rows(tile + r0 * W,
                                     std::min(kTwiddleRefresh, n1 - r0), W, w,
                                     step, opts_.isa);
          }
        }
      };
      stage.store = [=](idx_t i, const cplx* buf, int rank, int parts) {
        auto [g0, g1] = ThreadTeam::chunk(block_rows, parts, rank);
        for (idx_t g = g0; g < g1; ++g) {
          const idx_t col0 = (i * block_rows + g) * W;
          const cplx* tile = buf + g * row_elems;
          for (idx_t r = 0; r < n1; ++r) {
            store_packet(dst + r * n2 + col0, tile + r * W, W, nt);
          }
        }
        if (g1 > g0) {
          BWFFT_OBS_COUNT(BytesStored, (g1 - g0) * row_elems * sizeof(cplx));
        }
      };
      break;
    }
    case StageKind::Flat:
      BWFFT_CHECK(false, "the flat pass is not tiled");
  }
  return stage;
}

void DoubleBufferEngine::run_stage(std::size_t k, const cplx* src,
                                   cplx* dst) {
  const PlannedStage& s = plan_.stages[k];
  Timer timer;
  BWFFT_OBS_SCOPE(obs_stage, s.name, 'G', s.rows);
  if (s.kind == StageKind::Flat) {
    ffts_[k]->apply_oop(src, dst);
    stats_.push_back(
        {timer.seconds(), s.iterations, s.rows_per_block, {}, Fusion::None});
    return;
  }
  const PipelineStage stage = make_stage(k, src, dst);
  if (analysis::self_check_enabled()) {
    // Self-audit (checked builds, or BWFFT_SELF_CHECK=1): probe a fused
    // stage's claims over dst, then record the schedule and validate the
    // Table II invariants after the stage.
    if (stage.fusion() != Fusion::None) {
      const analysis::HazardReport rep =
          analysis::probe_claim_outputs(plan_, k, stage, dst);
      BWFFT_CHECK(rep.clean(), "fused claims misrouted:\n" + rep.str());
    }
    analysis::HazardChecker::Options audit;
    audit.probe_partitions = false;
    analysis::HazardChecker(*pipeline_, audit).run_checked(stage);
  } else {
    pipeline_->execute(stage);
  }
  stats_.push_back({timer.seconds(), s.iterations, s.rows_per_block,
                    pipeline_->last_utilization(), stage.fusion()});
}

void DoubleBufferEngine::execute(cplx* in, cplx* out) {
  BWFFT_CHECK(in != out, "engines are out of place");
  stats_.clear();
  const std::size_t stages = plan_.stages.size();
  if (stages == 1) {  // flat 1D
    run_stage(0, in, out);
  } else if (plan_.dims.size() == 1) {  // four-step: columns in place, rows
    run_stage(0, in, in);
    run_stage(1, in, out);
  } else if (stages == 2) {
    run_stage(0, in, work_.data());
    run_stage(1, work_.data(), out);
  } else {
    run_stage(0, in, out);
    run_stage(1, out, in);
    run_stage(2, in, out);
  }
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double s = 1.0 / static_cast<double>(plan_.total);
    auto scale = [&](int, idx_t b, idx_t e) {
      for (idx_t i = b; i < e; ++i) out[i] *= s;
    };
    if (team_) {
      parallel_for_chunks(*team_, plan_.total, scale);
    } else {
      scale(0, 0, plan_.total);
    }
  }
}

}  // namespace bwfft
