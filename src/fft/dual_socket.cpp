#include "fft/dual_socket.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "fft/double_buffer.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"
#include "parallel/team_pool.h"
#include "pipeline/stage_plan.h"

namespace bwfft {

DualSocketFft3d::DualSocketFft3d(idx_t k, idx_t n, idx_t m, Direction dir,
                                 const FftOptions& opts, int sockets)
    : k_(k), n_(n), m_(m), dir_(dir), opts_(opts), sk_(sockets) {
  BWFFT_CHECK(sk_ >= 1, "need at least one socket");
  BWFFT_CHECK(k_ % sk_ == 0, "socket count must divide k");
  BWFFT_CHECK(n_ % sk_ == 0, "socket count must divide n");
  ksl_ = k_ / sk_;
  nsl_ = n_ / sk_;
  // Each socket runs the single-socket plan on its own sub-team and LLC:
  // p_c, the packet and the block come from the per-socket StagePlan.
  FftOptions per_socket = opts_;
  per_socket.threads = std::max(1, resolved_threads(opts_) / sk_);
  const StagePlan plan = make_stage_plan({k_, n_, m_}, per_socket);
  mu_ = plan.mu;

  // Per-socket local stage geometry; rows/packets are per-slab. The cross-
  // socket part of W^2/W^3 lives in the store index functions below. Its
  // rows are as wide as the plan's, so the plan's block holds them.
  stages_ = {StageGeometry{ksl_, n_, m_, 1, mu_},
             StageGeometry{m_ / mu_, ksl_, n_, mu_, mu_},
             StageGeometry{nsl_, m_ / mu_, k_, mu_, mu_}};
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const StageGeometry& g = stages_[i];
    ffts_.push_back(std::make_shared<Fft1d>(g.fft_len, dir_, opts_.isa));
    block_rows_[i] =
        rows_per_block(g.rows(), plan.block_elems / g.row_elems());
  }
  team_ = parallel::make_team(plan.threads * sk_, {}, opts_.team_pool);
  pipeline_ = std::make_unique<DoubleBufferPipeline>(
      *team_,
      make_role_plan(plan.threads, plan.compute_threads, opts_.topo),
      plan.block_elems, sk_);
}

idx_t DualSocketFft3d::iterations(int stage) const {
  const auto i = static_cast<std::size_t>(stage);
  return stages_[i].rows() / block_rows_[i];
}

void DualSocketFft3d::run_stage(int stage, NumaArray& src, NumaArray& dst) {
  const auto si = static_cast<std::size_t>(stage);
  const StageGeometry& g = stages_[si];
  const Fft1d& fft = *ffts_[si];
  const idx_t row_elems = g.row_elems();
  const idx_t block_rows = block_rows_[si];
  const bool nt = opts_.nontemporal;

  // Scatter one buffer row to its rotated destination. `row` is the
  // socket-local row index of the stage grid; `s` the owning socket.
  auto store_row = [&](int s, idx_t row, const cplx* src_row,
                       std::size_t& cross_bytes) {
    switch (stage) {
      case 0: {
        // W^1: local blocked rotation within the slab (Fig 8 stage 1).
        rotate_store_rows(src_row, dst.slab(s), row, 1, g.a, g.b, g.cp(), mu_,
                          nt);
        break;
      }
      case 1: {
        // W^2: local rotation + exchange; packets indexed by y land in the
        // domain owning that y range, reassembling full-z pencils.
        const idx_t xp = row / ksl_;
        const idx_t zl = row % ksl_;
        for (idx_t y = 0; y < n_; ++y) {
          const int dy = static_cast<int>(y / nsl_);
          const idx_t off =
              ((y % nsl_) * (m_ / mu_) + xp) * k_ * mu_ + (s * ksl_ + zl) * mu_;
          store_packet(dst.slab(dy) + off, src_row + y * mu_, mu_, nt);
          if (dy != s) cross_bytes += static_cast<std::size_t>(mu_) * sizeof(cplx);
        }
        break;
      }
      default: {
        // W^3: local rotation + exchange back to the natural order
        // distributed by z.
        const idx_t yl = row / (m_ / mu_);
        const idx_t xp = row % (m_ / mu_);
        const idx_t y = s * nsl_ + yl;
        for (idx_t z = 0; z < k_; ++z) {
          const int dz = static_cast<int>(z / ksl_);
          const idx_t off = ((z % ksl_) * n_ + y) * m_ + xp * mu_;
          store_packet(dst.slab(dz) + off, src_row + z * mu_, mu_, nt);
          if (dz != s) cross_bytes += static_cast<std::size_t>(mu_) * sizeof(cplx);
        }
        break;
      }
    }
  };

  // One pipeline group per socket: it streams from its own slab and
  // scatters through the stage's W (local, or across the link).
  std::vector<PipelineStage> per_socket(static_cast<std::size_t>(sk_));
  for (int s = 0; s < sk_; ++s) {
    PipelineStage& ps = per_socket[static_cast<std::size_t>(s)];
    ps = make_row_stage(src.slab(s), fft, g.lanes, block_rows, row_elems,
                        iterations(stage));
    ps.store = [=, this, &store_row](idx_t i, const cplx* buf, int rank,
                                     int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      std::size_t cross_bytes = 0;
      for (idx_t r = r0; r < r1; ++r) {
        store_row(s, i * block_rows + r, buf + r * row_elems, cross_bytes);
      }
      if (cross_bytes > 0) traffic_.record_write(cross_bytes);
    };
  }
  pipeline_->set_trace(trace_ ? &(*trace_)[si] : nullptr);
  pipeline_->execute(per_socket);
}

void DualSocketFft3d::execute_distributed(NumaArray& x, NumaArray& y) {
  BWFFT_CHECK(x.domains() == sk_ && y.domains() == sk_,
              "array domain count mismatch");
  BWFFT_CHECK(x.total_elems() == size() && y.total_elems() == size(),
              "array size mismatch");
  traffic_.reset();
  run_stage(0, x, y);  // local writes
  run_stage(1, y, x);  // exchange: full-z pencils distributed by y
  run_stage(2, x, y);  // exchange: natural order distributed by z
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double sc = 1.0 / static_cast<double>(size());
    for (int d = 0; d < sk_; ++d) {
      cplx* slab = y.slab(d);
      for (idx_t i = 0; i < y.elems_per_domain(); ++i) slab[i] *= sc;
    }
  }
}

void DualSocketFft3d::execute(cplx* in, cplx* out) {
  NumaArray x(sk_, size() / sk_), y(sk_, size() / sk_);
  for (int d = 0; d < sk_; ++d) {
    std::memcpy(x.slab(d), in + d * (size() / sk_),
                static_cast<std::size_t>(size() / sk_) * sizeof(cplx));
  }
  execute_distributed(x, y);
  for (int d = 0; d < sk_; ++d) {
    std::memcpy(out + d * (size() / sk_), y.slab(d),
                static_cast<std::size_t>(size() / sk_) * sizeof(cplx));
  }
}

}  // namespace bwfft
