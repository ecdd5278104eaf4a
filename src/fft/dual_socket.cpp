#include "fft/dual_socket.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"
#include "pipeline/stage_plan.h"
#include "parallel/team_pool.h"

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
  per_socket.threads =
      std::max(1, make_stage_plan({k_, n_, m_}, opts_).threads / sk_);
  const StagePlan plan = make_stage_plan({k_, n_, m_}, per_socket);
  mu_ = plan.mu;
  per_socket_threads_ = plan.threads;
  block_elems_ = plan.block_elems;

  // Per-socket local stage geometry; rows/packets are per-slab. The cross-
  // socket part of W^2/W^3 lives in the store index functions below. Its
  // rows are as wide as the plan's, so the plan's block holds them.
  stages_ = {StageGeometry{ksl_, n_, m_, 1, mu_},
             StageGeometry{m_ / mu_, ksl_, n_, mu_, mu_},
             StageGeometry{nsl_, m_ / mu_, k_, mu_, mu_}};
  for (const auto& g : stages_) {
    ffts_.push_back(std::make_shared<Fft1d>(g.fft_len, dir_, opts_.isa));
  }
  socket_roles_ =
      make_role_plan(per_socket_threads_, plan.compute_threads, opts_.topo);
  team_ = parallel::make_team(per_socket_threads_ * sk_, {},
                               opts_.team_pool);
  socket_.resize(static_cast<std::size_t>(sk_));
  for (auto& s : socket_) {
    s.barrier = std::make_unique<SpinBarrier>(per_socket_threads_);
    s.buffer = AlignedBuffer<cplx>(static_cast<std::size_t>(2 * block_elems_),
                                   AllocPlacement::HugePage);
  }
}

void DualSocketFft3d::run_stage(int stage, NumaArray& src, NumaArray& dst) {
  const StageGeometry& g = stages_[static_cast<std::size_t>(stage)];
  const Fft1d& fft = *ffts_[static_cast<std::size_t>(stage)];
  const idx_t row_elems = g.row_elems();
  const idx_t block_rows = rows_per_block(g.rows(), block_elems_ / row_elems);
  const idx_t iters = g.rows() / block_rows;
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

  team_->run([&](int tid) {
    const int s = tid / per_socket_threads_;
    const int lt = tid % per_socket_threads_;
    const bool is_compute = socket_roles_.is_compute(lt);
    const int rank = socket_roles_.group_rank(lt);
    SocketState& st = socket_[static_cast<std::size_t>(s)];
    cplx* buf0 = st.buffer.data();
    cplx* buf1 = st.buffer.data() + block_elems_;
    const cplx* local_src = src.slab(s);
    std::size_t cross_bytes = 0;

    auto do_load = [&](idx_t i, cplx* buf, int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      if (r1 > r0) {
        std::memcpy(buf + r0 * row_elems,
                    local_src + (i * block_rows + r0) * row_elems,
                    static_cast<std::size_t>((r1 - r0) * row_elems) *
                        sizeof(cplx));
      }
    };
    auto do_compute = [&](cplx* buf, int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      if (r1 > r0) fft.apply_lanes(buf + r0 * row_elems, g.lanes, r1 - r0);
    };
    auto do_store = [&](idx_t i, const cplx* buf, int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      for (idx_t r = r0; r < r1; ++r) {
        store_row(s, i * block_rows + r, buf + r * row_elems, cross_bytes);
      }
    };

    if (socket_roles_.data == 0) {
      // Single-threaded (or compute-only) socket: sequential per block.
      const int parts = socket_roles_.compute;
      for (idx_t i = 0; i < iters; ++i) {
        cplx* buf = (i % 2 == 0) ? buf0 : buf1;
        do_load(i, buf, parts);
        st.barrier->arrive_and_wait();
        do_compute(buf, parts);
        st.barrier->arrive_and_wait();
        do_store(i, buf, parts);
        st.barrier->arrive_and_wait();
      }
    } else {
      // Table II within the socket.
      for (idx_t step = 0; step < iters + 2; ++step) {
        cplx* stepbuf = (step % 2 == 0) ? buf0 : buf1;
        if (!is_compute) {
          if (step >= 2) do_store(step - 2, stepbuf, socket_roles_.data);
          if (step < iters) do_load(step, stepbuf, socket_roles_.data);
          stream_fence();
        } else if (step >= 1 && step <= iters) {
          cplx* other = (step % 2 == 0) ? buf1 : buf0;
          do_compute(other, socket_roles_.compute);
        }
        st.barrier->arrive_and_wait();
      }
    }
    if (cross_bytes > 0) traffic_.record_write(cross_bytes);
  });
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
