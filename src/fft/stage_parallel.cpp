#include "fft/stage_parallel.h"

#include <algorithm>

#include "common/error.h"
#include "layout/rotate.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

StageParallelEngine::StageParallelEngine(std::vector<idx_t> dims,
                                         Direction dir,
                                         const FftOptions& opts)
    : dir_(dir), opts_(opts), plan_(make_stage_plan(dims, opts)) {
  BWFFT_CHECK(dims.size() == 2 || dims.size() == 3,
              "stage-parallel engine supports 2D and 3D");
  if (dims.size() == 2) {
    work_ = AlignedBuffer<cplx>(static_cast<std::size_t>(plan_.total),
                                AllocPlacement::HugePage);
  }
  for (const auto& s : plan_.stages) {
    ffts_.push_back(std::make_shared<Fft1d>(s.geom.fft_len, dir_, opts_.isa));
  }
  team_ = parallel::make_team(plan_.threads, {}, opts_.team_pool);
}

void StageParallelEngine::run_stage(const PlannedStage& s, const Fft1d& fft,
                                    cplx* src, cplx* dst) {
  const StageGeometry& g = s.geom;
  const idx_t row_elems = g.row_elems();
  BWFFT_OBS_SCOPE(obs_stage, s.name, 'G', g.rows());
  BWFFT_OBS_COUNT(BytesLoaded, g.rows() * row_elems * sizeof(cplx));
  BWFFT_OBS_COUNT(BytesStored, g.rows() * row_elems * sizeof(cplx));
  const idx_t run = g.run_rows();
  parallel_for_chunks(*team_, g.rows(), [&](int, idx_t b, idx_t e) {
    for (idx_t r = b; r < e; r += run) {
      const idx_t nrows = std::min(run, e - r);
      cplx* rows = src + r * row_elems;
      fft.apply_lanes(rows, g.lanes, nrows);
      // Temporal scatter: the classic algorithm does not know the packets
      // will not be reused, so it pays the cache pollution.
      rotate_store_rows(rows, dst, r, nrows, g.a, g.b, g.cp(), g.mu,
                        /*nontemporal=*/false);
    }
  });
}

void StageParallelEngine::execute(cplx* in, cplx* out) {
  BWFFT_CHECK(in != out, "engines are out of place");
  const auto& st = plan_.stages;
  if (st.size() == 2) {
    run_stage(st[0], *ffts_[0], in, work_.data());
    run_stage(st[1], *ffts_[1], work_.data(), out);
  } else {
    run_stage(st[0], *ffts_[0], in, out);
    run_stage(st[1], *ffts_[1], out, in);
    run_stage(st[2], *ffts_[2], in, out);
  }
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double s = 1.0 / static_cast<double>(plan_.total);
    parallel_for_chunks(*team_, plan_.total, [&](int, idx_t b, idx_t e) {
      for (idx_t i = b; i < e; ++i) out[i] *= s;
    });
  }
}

}  // namespace bwfft
