#include "fft/double_buffer.h"

#include <cstring>

#include "analysis/hazard_checker.h"
#include "common/error.h"
#include "common/timer.h"
#include "layout/rotate.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "parallel/team_pool.h"

namespace bwfft {

DoubleBufferEngine::DoubleBufferEngine(std::vector<idx_t> dims, Direction dir,
                                       const FftOptions& opts)
    : dir_(dir), opts_(opts), plan_(make_stage_plan(dims, opts)) {
  BWFFT_CHECK(dims.size() == 2 || dims.size() == 3,
              "double-buffer engine supports 2D and 3D");
  if (dims.size() == 2) {
    work_ = AlignedBuffer<cplx>(static_cast<std::size_t>(plan_.total),
                                AllocPlacement::HugePage);
  }
  for (const auto& s : plan_.stages) {
    ffts_.push_back(std::make_shared<Fft1d>(s.geom.fft_len, dir_, opts_.isa));
  }
  roles_ = make_role_plan(plan_.threads, plan_.compute_threads, opts_.topo);
  team_ = parallel::make_team(
      plan_.threads, opts_.pin_threads ? roles_.cpu : std::vector<int>{},
      opts_.team_pool);
  pipeline_ =
      std::make_unique<DoubleBufferPipeline>(*team_, roles_, plan_.block_elems);
}

void DoubleBufferEngine::run_stage(const PlannedStage& s, const Fft1d& fft,
                                   const cplx* src, cplx* dst,
                                   bool pipelined) {
  const StageGeometry g = s.geom;
  const idx_t row_elems = s.row_elems;
  const idx_t block_rows = s.rows_per_block;
  const bool nt = s.nontemporal;

  PipelineStage stage;
  stage.iterations = s.iterations;
  // R_{b,i}: stream block i's rows into the buffer half. The stores are
  // temporal on purpose — the compute threads read them next iteration.
  stage.load = [=](idx_t i, cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) {
      std::memcpy(buf + r0 * row_elems,
                  src + (i * block_rows + r0) * row_elems,
                  static_cast<std::size_t>((r1 - r0) * row_elems) *
                      sizeof(cplx));
      BWFFT_OBS_COUNT(BytesLoaded, (r1 - r0) * row_elems * sizeof(cplx));
    }
  };
  // Compute kernel: I_{rows} (x) DFT_L (x) I_lanes, in place on the half.
  stage.compute = [=, &fft](idx_t, cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) fft.apply_lanes(buf + r0 * row_elems, g.lanes, r1 - r0);
  };
  // W_{b,i}: scatter the block through the blocked rotation with
  // non-temporal stores (the data is dead until the next stage).
  stage.store = [=](idx_t i, const cplx* buf, int rank, int parts) {
    auto [r0, r1] = ThreadTeam::chunk(block_rows, parts, rank);
    if (r1 > r0) {
      rotate_store_rows(buf + r0 * row_elems, dst, i * block_rows + r0,
                        r1 - r0, g.a, g.b, g.cp(), g.mu, nt);
      BWFFT_OBS_COUNT(BytesStored, (r1 - r0) * row_elems * sizeof(cplx));
    }
  };

  Timer timer;
  BWFFT_OBS_SCOPE(obs_stage, s.name, 'G', s.rows);
  if (pipelined) {
    if (analysis::self_check_enabled()) {
      // Self-audit (checked builds, or BWFFT_SELF_CHECK=1): record the
      // schedule and validate the Table II invariants after the stage.
      analysis::Trace trace;
      pipeline_->set_trace(&trace);
      try {
        pipeline_->execute(stage);
      } catch (...) {
        pipeline_->set_trace(nullptr);
        throw;
      }
      pipeline_->set_trace(nullptr);
      const auto rep = analysis::audit_schedule(trace, stage.iterations, roles_);
      BWFFT_CHECK(rep.clean(), "pipeline schedule hazard:\n" + rep.str());
    } else {
      pipeline_->execute(stage);
    }
  } else {
    pipeline_->execute_unpipelined(stage);
  }
  stats_.push_back({timer.seconds(), stage.iterations, block_rows,
                    pipeline_->last_utilization()});
}

void DoubleBufferEngine::run_all(cplx* in, cplx* out, bool pipelined) {
  BWFFT_CHECK(in != out, "engines are out of place");
  stats_.clear();
  const auto& st = plan_.stages;
  if (st.size() == 2) {
    run_stage(st[0], *ffts_[0], in, work_.data(), pipelined);
    run_stage(st[1], *ffts_[1], work_.data(), out, pipelined);
  } else {
    run_stage(st[0], *ffts_[0], in, out, pipelined);
    run_stage(st[1], *ffts_[1], out, in, pipelined);
    run_stage(st[2], *ffts_[2], in, out, pipelined);
  }
  if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
    const double s = 1.0 / static_cast<double>(plan_.total);
    parallel_for_chunks(*team_, plan_.total, [&](int, idx_t b, idx_t e) {
      for (idx_t i = b; i < e; ++i) out[i] *= s;
    });
  }
}

void DoubleBufferEngine::execute(cplx* in, cplx* out) {
  run_all(in, out, /*pipelined=*/true);
}

void DoubleBufferEngine::execute_unpipelined(cplx* in, cplx* out) {
  run_all(in, out, /*pipelined=*/false);
}

}  // namespace bwfft
