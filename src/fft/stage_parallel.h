// Transpose-based row–column engine (the "MKL/FFTW-like" comparator).
//
// Each stage reads every row once, transforms it with the unit-stride
// batch kernel, and immediately scatters its cacheline packets through the
// blocked rotation to the destination array (temporal stores). Good
// kernels, good per-stage access patterns — but every stage is a full
// round trip through main memory with no overlap of data movement and
// computation, which is the structural property (§I, Fig 1) that caps
// MKL/FFTW below 50% of achievable peak.
#pragma once

#include <memory>
#include <vector>

#include "common/aligned.h"
#include "fft/engine.h"
#include "fft/stage.h"
#include "fft1d/fft1d.h"
#include "parallel/team.h"
#include "pipeline/stage_plan.h"

namespace bwfft {

class StageParallelEngine final : public MdEngine {
 public:
  StageParallelEngine(std::vector<idx_t> dims, Direction dir,
                      const FftOptions& opts);
  void execute(cplx* in, cplx* out) override;
  const char* name() const override { return "stage-parallel"; }
  const StagePlan& plan() const { return plan_; }

 private:
  void run_stage(const PlannedStage& s, const Fft1d& fft, cplx* src,
                 cplx* dst);

  Direction dir_;
  FftOptions opts_;
  StagePlan plan_;  // executed untiled: one pass per stage, all threads
  std::vector<std::shared_ptr<Fft1d>> ffts_;  // per stage
  std::shared_ptr<ThreadTeam> team_;  // pooled or private (FftOptions::team_pool)
  // 2D needs an intermediate so the result lands in `out` (huge-page
  // preferred; degrades to plain aligned memory).
  AlignedBuffer<cplx> work_;
};

}  // namespace bwfft
