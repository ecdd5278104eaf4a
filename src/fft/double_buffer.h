// Double-buffered FFT engine — the paper's contribution (§III, §IV).
//
// Each stage of the plan is tiled into blocks that fit one half of a
// cache-resident shared buffer (b = LLC/2 policy, §IV-A). Half the threads
// are soft-DMA data threads: per Table II they stream block i from main
// memory into one buffer half (R_{b,i}) and write the previously computed
// block back with non-temporal stores (W_{b,i}), while the compute threads
// run the batch 1D FFT kernel in place on the other half. Data makes
// exactly one round-trip through DRAM per stage; all strided traffic is
// hidden behind compute. That is the Split schedule; every plan defaults
// to the Private one, where each thread takes claims (whole runs of rows
// sized to half its L2) from a shared counter and loads, transforms and
// stores each on its own tile (pipeline/pipeline.h). The stage-parallel
// baseline (EngineKind::StageParallel) is this engine on the Private
// claims with temporal stores in 2D/3D, and on the Flat pass in 1D.
//
// Stage kinds (pipeline/stage_plan.h): Rotated stages scatter each block
// through the blocked rotation (2D/3D). A 1D plan is the four-step rewrite
// DFT_n = L (I_{n1} (x) DFT_{n2}) D (DFT_{n1} (x) I_{n2}) as two stages —
// Columns (DFT_{n1} (x) I_{n2}, then the twiddle diagonal, in place) and
// Rows (I_{n1} (x) DFT_{n2}, then the stride permutation) — so a transform
// larger than the LLC streams exactly twice through DRAM: the case the
// paper's §V leaves open. Sizes the four-step cannot split (and every 1D
// stage-parallel plan) run one Flat Fft1d pass with no team and no
// pipeline. spl::plan_term states each stage kind as its SPL term.
#pragma once

#include <memory>
#include <vector>

#include "common/aligned.h"
#include "fft/engine.h"
#include "fft/stage.h"
#include "fft1d/fft1d.h"
#include "parallel/roles.h"
#include "parallel/team.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"

namespace bwfft {

/// The load and compute tasks of a tiled batch-FFT stage over the rows of
/// `src`: block i's `block_rows` rows of `row_elems` elements are copied
/// into the buffer half and transformed in place as `lanes`-wide pencils.
/// The caller adds the store — the blocked rotation of a Rotated stage,
/// which a dual-socket stage cuts at the slab boundaries (Table III W).
PipelineStage make_row_stage(const cplx* src, const Fft1d& fft, idx_t lanes,
                             idx_t block_rows, idx_t row_elems,
                             idx_t iterations);

/// The tasks of Rotated or Rows stage `s` (rows of src, blocked rotation
/// into dst; a Rows load transposes each R x n2 row group into its
/// n2 x R tile). A fused stage (s.fused, Private only) has no load task:
/// its compute reads each claim from src (a Rows claim gathers it into
/// the tile first). Under Fusion::LoadStore it has no
/// store task either where Fft1d::streams_rotated accepts dst (a dst
/// aligned to the streaming width, a lane row of whole vector chunks);
/// elsewhere it keeps the tile store.
PipelineStage make_rotated_stage(const PlannedStage& s, const Fft1d& fft,
                                 const cplx* src, cplx* dst);

class DoubleBufferEngine final : public MdEngine {
 public:
  DoubleBufferEngine(std::vector<idx_t> dims, Direction dir,
                     const FftOptions& opts);
  void execute(cplx* in, cplx* out) override;
  const char* name() const override {
    return opts_.engine == EngineKind::StageParallel ? "stage-parallel"
                                                     : "double-buffer";
  }
  int threads() const override { return plan_.threads; }

  const RolePlan& roles() const { return roles_; }
  const StagePlan& plan() const { return plan_; }
  idx_t block_elems() const { return plan_.block_elems; }

  /// Wall time and iteration count of each stage in the last execute call
  /// (one entry per plan stage). Useful for stage-balance
  /// analysis: the paper's Fig 9 discussion of small iteration counts is
  /// directly visible here.
  struct StageStats {
    double seconds = 0.0;
    idx_t iterations = 0;  ///< blocks (Split) or claims (Private)
    idx_t block_rows = 0;  ///< rows per block or claim
    /// Per-role busy time (empty on the Flat path).
    DoubleBufferPipeline::RoleUtilization util;
    /// The fusion the stage ran (the plan's, less a store that fell back
    /// to the tile because dst is not aligned for streaming).
    Fusion fused = Fusion::None;
  };
  const std::vector<StageStats>& last_stats() const { return stats_; }

 private:
  /// The load/compute/store tasks of one tiled stage.
  PipelineStage make_stage(std::size_t k, const cplx* src, cplx* dst) const;
  void run_stage(std::size_t k, const cplx* src, cplx* dst);

  Direction dir_;
  FftOptions opts_;
  StagePlan plan_;
  std::vector<std::shared_ptr<Fft1d>> ffts_;  // one per stage
  // Team and pipeline: null on the Flat path. The team is pooled or
  // private (FftOptions::team_pool).
  std::shared_ptr<ThreadTeam> team_;
  RolePlan roles_;
  std::unique_ptr<DoubleBufferPipeline> pipeline_;
  AlignedBuffer<cplx> work_;  // 2D intermediate (huge-page preferred)
  cvec col_roots_;  // w_N^q for q < n2: column-pass twiddle generators
  std::vector<StageStats> stats_;
};

}  // namespace bwfft
