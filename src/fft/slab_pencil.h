// Slab–pencil engine (3D): per-slab 2D FFT, then buffered z pencils.
//
// The decomposition FFTW selects on the paper's AMD machines (§V): the
// first two dimensions are fused into a 2D FFT computed slab-by-slab (two
// round trips stay inside one n x m slab, which fits AMD's larger caches),
// and the z dimension is transformed with strided pencils buffered through
// cache-resident scratch (Frigo-style copy-before-compute, ref [11]).
// This reduces main-memory round trips from three to two but still does
// not overlap data movement with computation.
#pragma once

#include <memory>
#include <vector>

#include "common/aligned.h"
#include "fft/engine.h"
#include "fft/stage.h"
#include "fft1d/fft1d.h"
#include "parallel/team.h"

namespace bwfft {

class SlabPencilEngine final : public MdEngine {
 public:
  SlabPencilEngine(std::vector<idx_t> dims, Direction dir,
                   const FftOptions& opts);
  void execute(cplx* in, cplx* out) override;
  const char* name() const override { return "slab-pencil"; }
  int threads() const override { return team_->size(); }

 private:
  std::vector<idx_t> dims_;  // [k, n, m]
  Direction dir_;
  FftOptions opts_;
  std::array<StageGeometry, 2> slab_stages_;  // 2D stages within one slab
  std::shared_ptr<Fft1d> fft_m_, fft_n_, fft_k_;
  std::shared_ptr<ThreadTeam> team_;  // pooled or private (FftOptions::team_pool)
  // One n*m scratch per thread (huge-page preferred, plain fallback).
  std::vector<AlignedBuffer<cplx>> slab_work_;
  idx_t total_ = 1;
};

}  // namespace bwfft
