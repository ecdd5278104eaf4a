#include "fft/slab_pencil.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "layout/rotate.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

SlabPencilEngine::SlabPencilEngine(std::vector<idx_t> dims, Direction dir,
                                   const FftOptions& opts)
    : dims_(std::move(dims)), dir_(dir), opts_(opts) {
  BWFFT_CHECK(dims_.size() == 3, "slab-pencil engine is 3D only");
  const idx_t k = dims_[0], n = dims_[1], m = dims_[2];
  // The z pencils run apply_lanes_strided, which needs a Stockham size.
  BWFFT_CHECK(has_stockham_schedule(k),
              "slab-pencil engine needs a z size with a Stockham schedule");
  total_ = k * n * m;
  const idx_t mu = packet_size_for(m);
  slab_stages_ = make_2d_stages(n, m, mu);
  fft_m_ = std::make_shared<Fft1d>(m, dir_, opts_.isa);
  fft_n_ = std::make_shared<Fft1d>(n, dir_, opts_.isa);
  fft_k_ = std::make_shared<Fft1d>(k, dir_, opts_.isa);
  const int p = resolved_threads(opts_);
  team_ = parallel::make_team(p, {}, opts_.team_pool);
  slab_work_.reserve(static_cast<std::size_t>(p));
  for (int t = 0; t < p; ++t) {
    slab_work_.emplace_back(static_cast<std::size_t>(n * m),
                            AllocPlacement::HugePage);
  }
}

void SlabPencilEngine::execute(cplx* in, cplx* out) {
  BWFFT_CHECK(in != out, "engines are out of place");
  const idx_t k = dims_[0], n = dims_[1], m = dims_[2];
  const idx_t slab = n * m;

  [[maybe_unused]] const std::uint64_t vol_bytes =
      static_cast<std::uint64_t>(total_) * sizeof(cplx);

  // Phase 1: 2D FFT per z-slab. Stage A transforms rows and rotates into
  // the per-thread scratch; stage B transforms the rotated pencils and
  // rotates back into the output slab in natural order.
  {
    BWFFT_OBS_SCOPE(obs_slabs, "slabs-2d", 'G', k);
    BWFFT_OBS_COUNT(BytesLoaded, vol_bytes);
    BWFFT_OBS_COUNT(BytesStored, vol_bytes);
    parallel_for_chunks(*team_, k, [&](int tid, idx_t zb, idx_t ze) {
      cplx* work = slab_work_[static_cast<std::size_t>(tid)].data();
      const auto& g0 = slab_stages_[0];
      const auto& g1 = slab_stages_[1];
      for (idx_t z = zb; z < ze; ++z) {
        cplx* src = in + z * slab;
        cplx* dst = out + z * slab;
        for (idx_t r = 0; r < g0.rows(); r += g0.run_rows()) {
          const idx_t nrows = std::min(g0.run_rows(), g0.rows() - r);
          cplx* rows = src + r * g0.row_elems();
          fft_m_->apply_lanes(rows, g0.lanes, nrows);
          rotate_store_rows(rows, work, r, nrows, g0.a, g0.b, g0.cp(), g0.mu,
                            false);
        }
        for (idx_t r = 0; r < g1.rows(); r += g1.run_rows()) {
          const idx_t nrows = std::min(g1.run_rows(), g1.rows() - r);
          cplx* rows = work + r * g1.row_elems();
          fft_n_->apply_lanes(rows, g1.lanes, nrows);
          rotate_store_rows(rows, dst, r, nrows, g1.a, g1.b, g1.cp(), g1.mu,
                            false);
        }
      }
    });
  }

  // Phase 2: z pencils at stride n*m, buffered through scratch in
  // mu-lane groups.
  {
    BWFFT_OBS_SCOPE(obs_pencils, "z-pencils", 'G', slab);
    BWFFT_OBS_COUNT(BytesLoaded, vol_bytes);
    BWFFT_OBS_COUNT(BytesStored, vol_bytes);
    const idx_t mu = packet_size_for(m);
    parallel_for_chunks(*team_, slab / mu, [&](int, idx_t b, idx_t e) {
      for (idx_t t = b; t < e; ++t) {
        fft_k_->apply_lanes_strided(out + t * mu, mu, slab);
      }
    });
  }

  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double s = 1.0 / static_cast<double>(total_);
    parallel_for_chunks(*team_, total_, [&](int, idx_t bb, idx_t ee) {
      for (idx_t i = bb; i < ee; ++i) out[i] *= s;
    });
  }
}

}  // namespace bwfft
