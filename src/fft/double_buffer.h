// Double-buffered FFT engine — the paper's contribution (§III, §IV).
//
// Each stage of the rotated decomposition is tiled into blocks that fit
// one half of a cache-resident shared buffer (b = LLC/2 policy, §IV-A).
// Half the threads are soft-DMA data threads: per Table II they stream
// block i from main memory into one buffer half (R_{b,i}) and scatter the
// previously computed block back through the blocked rotation with
// non-temporal stores (W_{b,i}), while the compute threads run the batch
// 1D FFT kernel in place on the other half. Data makes exactly one
// round-trip through DRAM per stage at streaming-friendly granularity;
// all strided traffic is hidden behind compute.
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

class DoubleBufferEngine final : public MdEngine {
 public:
  DoubleBufferEngine(std::vector<idx_t> dims, Direction dir,
                     const FftOptions& opts);
  void execute(cplx* in, cplx* out) override;
  const char* name() const override { return "double-buffer"; }

  /// Run with the Table II overlap disabled (load/compute/store in
  /// lockstep) — the pipelining-ablation benchmark uses this.
  void execute_unpipelined(cplx* in, cplx* out);

  const RolePlan& roles() const { return roles_; }
  const StagePlan& plan() const { return plan_; }
  idx_t block_elems() const { return plan_.block_elems; }

  /// Wall time and iteration count of each stage in the last execute call
  /// (2 entries for 2D plans, 3 for 3D). Useful for stage-balance
  /// analysis: the paper's Fig 9 discussion of small iteration counts is
  /// directly visible here.
  struct StageStats {
    double seconds = 0.0;
    idx_t iterations = 0;
    idx_t block_rows = 0;
    /// Per-role busy time (filled when set_collect_utilization(true)).
    DoubleBufferPipeline::RoleUtilization util;
  };
  const std::vector<StageStats>& last_stats() const { return stats_; }

  /// Collect per-role busy times into last_stats() (small overhead).
  void set_collect_utilization(bool on) {
    pipeline_->set_collect_utilization(on);
  }

 private:
  void run_stage(const PlannedStage& s, const Fft1d& fft, const cplx* src,
                 cplx* dst, bool pipelined);
  void run_all(cplx* in, cplx* out, bool pipelined);

  Direction dir_;
  FftOptions opts_;
  StagePlan plan_;
  std::vector<std::shared_ptr<Fft1d>> ffts_;
  std::shared_ptr<ThreadTeam> team_;  // pooled or private (FftOptions::team_pool)
  RolePlan roles_;
  std::unique_ptr<DoubleBufferPipeline> pipeline_;
  AlignedBuffer<cplx> work_;  // 2D intermediate (huge-page preferred)
  std::vector<StageStats> stats_;
};

}  // namespace bwfft
