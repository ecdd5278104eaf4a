#include "fft1d/large.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "kernels/batch.h"
#include "kernels/twiddle.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

namespace {

/// Refresh the twiddle recurrence with an exactly computed root every this
/// many steps, bounding the multiplicative drift to ~128 eps (well under
/// the transform's own O(sqrt(log n)) rounding growth).
constexpr idx_t kTwiddleRefresh = 128;

/// Strided column-pass reads walk n1 addresses a full row apart — a
/// pattern no hardware prefetcher follows — so the gather issues its own
/// prefetches this many rows ahead.
constexpr idx_t kPrefetchRows = 8;

}  // namespace

Fft1dLarge::Fft1dLarge(idx_t n, Direction dir, const FftOptions& opts)
    : n_(n), dir_(dir), opts_(opts), plan_(make_stage_plan({n}, opts)) {
  if (plan_.n1 <= 1) {
    // No usable split: one flat pass. Still a valid plan — the facade
    // must not reject sizes the tuner or exec layer routes here.
    flat_ = std::make_shared<Fft1d>(n_, dir_, opts_.isa);
    return;
  }
  fft_n1_ = std::make_shared<Fft1d>(plan_.n1, dir_, opts_.isa);
  fft_n2_ = std::make_shared<Fft1d>(plan_.n2, dir_, opts_.isa);
  roles_ = make_role_plan(plan_.threads, plan_.compute_threads, opts_.topo);
  team_ = parallel::make_team(
      plan_.threads, opts_.pin_threads ? roles_.cpu : std::vector<int>{},
      opts_.team_pool);
  pipeline_ =
      std::make_unique<DoubleBufferPipeline>(*team_, roles_, plan_.block_elems);
  col_roots_ = root_table(n_, plan_.n2, dir_);
}

void Fft1dLarge::column_pass(cplx* data) {
  // (DFT_{n1} (x) I_{n2}) then D_{n2}^{n1 n2}, tiled over groups of W
  // contiguous columns. Tiles are row-major n1 x W, so the strided side
  // of the loads and stores moves W-element (up to 1 KiB) contiguous
  // runs and the lanes kernel sweeps W-wide SIMD rows.
  const PlannedStage& s = plan_.stages[0];
  const idx_t n1 = plan_.n1, n2 = plan_.n2;
  const idx_t W = s.group;
  const idx_t group_elems = s.row_elems;
  const idx_t groups_per_block = s.rows_per_block;
  const bool nt = s.nontemporal;

  BWFFT_OBS_SCOPE(obs_stage, s.name, 'G', s.rows);
  PipelineStage stage;
  stage.iterations = s.iterations;
  stage.load = [=, this](idx_t i, cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    for (idx_t g = g0; g < g1; ++g) {
      const idx_t col0 = (i * groups_per_block + g) * W;
      cplx* tile = buf + g * group_elems;
      for (idx_t r = 0; r < n1; ++r) {
        if (r + kPrefetchRows < n1) {
          const char* next = reinterpret_cast<const char*>(
              data + (r + kPrefetchRows) * n2 + col0);
          for (idx_t b = 0; b < W * static_cast<idx_t>(sizeof(cplx));
               b += 64) {
            __builtin_prefetch(next + b, 0, 0);
          }
        }
        std::memcpy(tile + r * W, data + r * n2 + col0,
                    static_cast<std::size_t>(W) * sizeof(cplx));
      }
    }
    if (g1 > g0) {
      BWFFT_OBS_COUNT(BytesLoaded, (g1 - g0) * group_elems * sizeof(cplx));
    }
  };
  stage.compute = [=, this](idx_t i, cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    if (g1 <= g0) return;
    fft_n1_->apply_lanes(buf + g0 * group_elems, W, g1 - g0);
    // Twiddle scale D: element (r, q) *= w_N^{r q}. All W columns step
    // their geometric recurrence together through the SIMD diagonal
    // kernel; each kTwiddleRefresh-row chunk re-anchors the recurrence
    // to exactly computed roots to bound drift.
    cplx w[kFourStepMaxCols], step[kFourStepMaxCols];
    for (idx_t g = g0; g < g1; ++g) {
      cplx* tile = buf + g * group_elems;
      const idx_t col0 = (i * groups_per_block + g) * W;
      for (idx_t l = 0; l < W; ++l) {
        step[l] = col_roots_[static_cast<std::size_t>(col0 + l)];
      }
      for (idx_t r0 = 0; r0 < n1; r0 += kTwiddleRefresh) {
        for (idx_t l = 0; l < W; ++l) {
          w[l] = root_of_unity(n_, (r0 * (col0 + l)) % n_, dir_);
        }
        kernels::diag_scale_rows(tile + r0 * W,
                                 std::min(kTwiddleRefresh, n1 - r0), W, w,
                                 step, opts_.isa);
      }
    }
  };
  stage.store = [=, this](idx_t i, const cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    for (idx_t g = g0; g < g1; ++g) {
      const idx_t col0 = (i * groups_per_block + g) * W;
      const cplx* tile = buf + g * group_elems;
      for (idx_t r = 0; r < n1; ++r) {
        store_packet(data + r * n2 + col0, tile + r * W, W, nt);
      }
    }
    if (g1 > g0) {
      BWFFT_OBS_COUNT(BytesStored, (g1 - g0) * group_elems * sizeof(cplx));
    }
  };
  pipeline_->execute(stage);
}

void Fft1dLarge::row_pass(const cplx* src, cplx* dst) {
  // (I_{n1} (x) DFT_{n2}) then the final L_{n2}^{n1 n2}: contiguous rows
  // in, transposing scatter out. Blocks are R-row groups, so the output
  // side writes R-element (up to 2 KiB) contiguous runs — the gather
  // feeding each run walks R cached rows of the tile in lockstep.
  const PlannedStage& s = plan_.stages[1];
  const idx_t n1 = plan_.n1, n2 = plan_.n2;
  const idx_t R = s.group;
  const idx_t group_elems = s.row_elems;
  const idx_t groups_per_block = s.rows_per_block;
  const bool nt = s.nontemporal;

  BWFFT_OBS_SCOPE(obs_stage, s.name, 'G', s.rows);
  PipelineStage stage;
  stage.iterations = s.iterations;
  stage.load = [=, this](idx_t i, cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    if (g1 > g0) {
      const idx_t row0 = (i * groups_per_block + g0) * R;
      std::memcpy(buf + g0 * group_elems, src + row0 * n2,
                  static_cast<std::size_t>((g1 - g0) * group_elems) *
                      sizeof(cplx));
      BWFFT_OBS_COUNT(BytesLoaded, (g1 - g0) * group_elems * sizeof(cplx));
    }
  };
  stage.compute = [=, this](idx_t, cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    if (g1 > g0) fft_n2_->apply_batch(buf + g0 * group_elems, (g1 - g0) * R);
  };
  stage.store = [=, this](idx_t i, const cplx* buf, int rank, int parts) {
    auto [g0, g1] = ThreadTeam::chunk(groups_per_block, parts, rank);
    cplx run[kFourStepMaxRows];
    for (idx_t g = g0; g < g1; ++g) {
      const idx_t row0 = (i * groups_per_block + g) * R;
      const cplx* tile = buf + g * group_elems;
      // The output run for column q is the q-th element of each of the R
      // rows. Consecutive q revisit the same R cachelines, so the gather
      // stays L1-resident between the contiguous NT stores.
      for (idx_t q = 0; q < n2; ++q) {
        for (idx_t l = 0; l < R; ++l) run[l] = tile[l * n2 + q];
        store_packet(dst + q * n1 + row0, run, R, nt);
      }
    }
    if (g1 > g0) {
      BWFFT_OBS_COUNT(BytesStored, (g1 - g0) * group_elems * sizeof(cplx));
    }
  };
  pipeline_->execute(stage);
}

void Fft1dLarge::execute(cplx* in, cplx* out) {
  BWFFT_CHECK(in != out, "four-step large 1D is out of place");
  if (flat_) {
    flat_->apply_oop(in, out);
    if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
      flat_->scale_inverse(out, n_);
    }
    return;
  }
  column_pass(in);
  row_pass(in, out);
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double s = 1.0 / static_cast<double>(n_);
    parallel_for_chunks(*team_, n_, [&](int, idx_t lo, idx_t hi) {
      for (idx_t i = lo; i < hi; ++i) out[i] *= s;
    });
  }
}

}  // namespace bwfft
