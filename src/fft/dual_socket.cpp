#include "fft/dual_socket.h"

#include <cstring>

#include "common/error.h"
#include "fft/double_buffer.h"
#include "layout/rotate.h"
#include "parallel/team_pool.h"

namespace bwfft {

DualSocketFft3d::DualSocketFft3d(idx_t k, idx_t n, idx_t m, Direction dir,
                                 const FftOptions& opts, int sockets)
    : dir_(dir), opts_(opts), plan_(make_stage_plan({k, n, m}, opts, sockets)) {
  for (const PlannedStage& s : plan_.stages) {
    ffts_.push_back(std::make_shared<Fft1d>(s.geom.fft_len, dir_, opts_.isa));
  }
  team_ = parallel::make_team(plan_.threads * plan_.sockets, {},
                              opts_.team_pool);
  pipeline_ = std::make_unique<DoubleBufferPipeline>(
      *team_,
      make_role_plan(plan_.threads, plan_.compute_threads, opts_.topo),
      plan_.slot_elems(), plan_.sockets);
}

void DualSocketFft3d::run_stage(std::size_t k, NumaArray& src,
                                NumaArray& dst) {
  const PlannedStage& s = plan_.stages[k];
  const StageGeometry g = s.geom;
  const idx_t row_elems = s.row_elems;
  const idx_t block_rows = s.rows_per_block;
  // W^1 keeps each row in its socket's slab; W^2 and W^3 are the cube's
  // rotations, whose rows the slab boundaries cut into one run per slab.
  const idx_t runs = slab_runs(s);
  const idx_t run_packets = g.cp() / runs;
  const bool nt = s.nontemporal;

  // One pipeline group per socket: it streams from its own slab and
  // scatters each row through the stage's W (local, or across the link).
  std::vector<PipelineStage> per_socket;
  for (int sock = 0; sock < plan_.sockets; ++sock) {
    PipelineStage ps = make_row_stage(src.slab(sock), *ffts_[k], g.lanes,
                                      block_rows, row_elems, s.iterations);
    ps.store = [=, this, &s, &dst](idx_t i, const cplx* buf, int rank,
                                   int parts) {
      auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
      idx_t off_slab = 0;
      for (idx_t r = r0; r < r1; ++r) {
        const idx_t row = socket_row(s, sock, i * block_rows + r);
        for (idx_t d = 0; d < runs; ++d) {
          const int slab = runs == 1 ? sock : static_cast<int>(d);
          rotate_store_rows(buf + r * row_elems + d * run_packets * g.mu,
                            dst.slab(slab), row, 1, g.a, g.b, run_packets,
                            g.mu, nt);
          if (slab != sock) off_slab += run_packets * g.mu;
        }
      }
      if (off_slab > 0) {
        traffic_.record_write(static_cast<std::size_t>(off_slab) *
                              sizeof(cplx));
      }
    };
    per_socket.push_back(std::move(ps));
  }
  pipeline_->set_trace(trace_ ? &(*trace_)[k] : nullptr);
  pipeline_->execute(per_socket);
}

void DualSocketFft3d::execute_distributed(NumaArray& x, NumaArray& y) {
  BWFFT_CHECK(x.domains() == sockets() && y.domains() == sockets(),
              "array domain count mismatch");
  BWFFT_CHECK(x.total_elems() == size() && y.total_elems() == size(),
              "array size mismatch");
  traffic_.reset();
  run_stage(0, x, y);  // local writes
  run_stage(1, y, x);  // exchange: full-z pencils distributed by y
  run_stage(2, x, y);  // exchange: natural order distributed by z
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double sc = 1.0 / static_cast<double>(size());
    for (int d = 0; d < sockets(); ++d) {
      cplx* slab = y.slab(d);
      for (idx_t i = 0; i < y.elems_per_domain(); ++i) slab[i] *= sc;
    }
  }
}

void DualSocketFft3d::execute(cplx* in, cplx* out) {
  const idx_t slab = size() / sockets();
  NumaArray x(sockets(), slab), y(sockets(), slab);
  for (int d = 0; d < sockets(); ++d) {
    std::memcpy(x.slab(d), in + d * slab,
                static_cast<std::size_t>(slab) * sizeof(cplx));
  }
  execute_distributed(x, y);
  for (int d = 0; d < sockets(); ++d) {
    std::memcpy(out + d * slab, y.slab(d),
                static_cast<std::size_t>(slab) * sizeof(cplx));
  }
}

}  // namespace bwfft
