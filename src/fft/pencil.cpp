#include "fft/pencil.h"

#include <cstring>

#include "common/error.h"
#include "kernels/twiddle.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

PencilEngine::PencilEngine(std::vector<idx_t> dims, Direction dir,
                           const FftOptions& opts)
    : dims_(std::move(dims)), dir_(dir), opts_(opts) {
  BWFFT_CHECK(dims_.size() == 2 || dims_.size() == 3,
              "pencil engine supports 2D and 3D");
  for (idx_t d : dims_) {
    BWFFT_CHECK(is_pow2(d), "pencil engine requires power-of-two sizes");
    total_ *= d;
    ffts_.push_back(std::make_shared<Fft1d>(d, dir_, opts_.isa));
  }
  team_ = parallel::make_team(resolved_threads(opts_), {}, opts_.team_pool);
}

void PencilEngine::execute(cplx* in, cplx* out) {
  BWFFT_CHECK(in != out, "engines are out of place");
  std::memcpy(out, in, static_cast<std::size_t>(total_) * sizeof(cplx));

  // Each pass reads and writes the whole array in place once.
  [[maybe_unused]] const std::uint64_t pass_bytes =
      static_cast<std::uint64_t>(total_) * sizeof(cplx);
  if (dims_.size() == 2) {
    const idx_t n = dims_[0], m = dims_[1];
    {
      // x: n contiguous rows of length m.
      BWFFT_OBS_SCOPE(obs_stage, "x-pass", 'G', n);
      BWFFT_OBS_COUNT(BytesLoaded, pass_bytes);
      BWFFT_OBS_COUNT(BytesStored, pass_bytes);
      parallel_for_chunks(*team_, n, [&](int, idx_t b, idx_t e) {
        ffts_[1]->apply_batch(out + b * m, e - b);
      });
    }
    {
      // y: m pencils of length n at stride m.
      BWFFT_OBS_SCOPE(obs_stage, "y-pass", 'G', m);
      BWFFT_OBS_COUNT(BytesLoaded, pass_bytes);
      BWFFT_OBS_COUNT(BytesStored, pass_bytes);
      parallel_for_chunks(*team_, m, [&](int, idx_t b, idx_t e) {
        for (idx_t c = b; c < e; ++c)
          ffts_[0]->apply_strided_inplace(out + c, m);
      });
    }
  } else {
    const idx_t k = dims_[0], n = dims_[1], m = dims_[2];
    {
      // x: k*n contiguous rows.
      BWFFT_OBS_SCOPE(obs_stage, "x-pass", 'G', k * n);
      BWFFT_OBS_COUNT(BytesLoaded, pass_bytes);
      BWFFT_OBS_COUNT(BytesStored, pass_bytes);
      parallel_for_chunks(*team_, k * n, [&](int, idx_t b, idx_t e) {
        ffts_[2]->apply_batch(out + b * m, e - b);
      });
    }
    {
      // y: for each (z, x), a pencil of length n at stride m.
      BWFFT_OBS_SCOPE(obs_stage, "y-pass", 'G', k * m);
      BWFFT_OBS_COUNT(BytesLoaded, pass_bytes);
      BWFFT_OBS_COUNT(BytesStored, pass_bytes);
      parallel_for_chunks(*team_, k * m, [&](int, idx_t b, idx_t e) {
        for (idx_t i = b; i < e; ++i) {
          const idx_t z = i / m, x = i % m;
          ffts_[1]->apply_strided_inplace(out + z * n * m + x, m);
        }
      });
    }
    {
      // z: for each (y, x), a pencil of length k at stride n*m.
      BWFFT_OBS_SCOPE(obs_stage, "z-pass", 'G', n * m);
      BWFFT_OBS_COUNT(BytesLoaded, pass_bytes);
      BWFFT_OBS_COUNT(BytesStored, pass_bytes);
      parallel_for_chunks(*team_, n * m, [&](int, idx_t b, idx_t e) {
        for (idx_t i = b; i < e; ++i) {
          ffts_[0]->apply_strided_inplace(out + i, n * m);
        }
      });
    }
  }

  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double s = 1.0 / static_cast<double>(total_);
    parallel_for_chunks(*team_, total_, [&](int, idx_t b, idx_t e) {
      for (idx_t i = b; i < e; ++i) out[i] *= s;
    });
  }
}

}  // namespace bwfft
