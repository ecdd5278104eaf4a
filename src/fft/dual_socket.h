// Dual-socket double-buffered 3D FFT (§IV-B, Fig 8, Table III).
//
// Data is distributed across the sockets' NUMA domains by the z dimension
// (each socket owns a contiguous k/sk x n x m slab) and runs the socket
// StagePlan (make_stage_plan(dims, opts, sk)). Every stage reads only from
// the socket's local memory; stage 1 also writes locally (W^1 rotates the
// slab), while stages 2 and 3 write across the interconnect: on the
// concatenated slabs W^2 and W^3 are the single-socket rotations of the
// socket's rows, cut at the slab boundaries into one run per socket.
// Within each socket the stage runs the same Table II software pipeline as
// the single-socket engine: the team is one DoubleBufferPipeline split into
// a group per socket, each with its own compute/data threads, cache buffer
// and barrier. Cross-socket write traffic is recorded so the
// harness can apply the QPI/HT bandwidth term of the paper's Fig 10
// analysis.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "fft/engine.h"
#include "fft1d/fft1d.h"
#include "parallel/numa.h"
#include "parallel/roles.h"
#include "parallel/team.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"

namespace bwfft {

class DualSocketFft3d {
 public:
  /// Cube k x n x m over `sockets` NUMA domains; sk must divide k and n.
  DualSocketFft3d(idx_t k, idx_t n, idx_t m, Direction dir,
                  const FftOptions& opts, int sockets = 2);

  /// Distributed transform: both arrays have one k/sk x n x m slab per
  /// domain; `x` is the input and is clobbered, the result lands in `y`.
  void execute_distributed(NumaArray& x, NumaArray& y);

  /// Convenience contiguous API: scatters `in` over the domains, runs,
  /// gathers into `out` (adds two copies; the distributed API is the
  /// intended hot path).
  void execute(cplx* in, cplx* out);

  int sockets() const { return plan_.sockets; }
  idx_t size() const { return plan_.total; }
  /// The socket plan this transform runs.
  const StagePlan& plan() const { return plan_; }

  /// Cross-socket bytes written by the last execute_* call.
  const LinkTraffic& traffic() const { return traffic_; }

  /// Each socket's role plan (every socket has the same one).
  const RolePlan& socket_roles() const { return pipeline_->roles(); }
  /// Pipeline iterations of stage `stage` (0..2) on every socket.
  idx_t iterations(int stage) const {
    return plan_.stages[static_cast<std::size_t>(stage)].iterations;
  }

  using Trace = std::vector<DoubleBufferPipeline::TraceEvent>;
  /// Record the schedule of later execute_* calls: stage s appends to
  /// (*sink)[s], each event tagged with its socket as the group. nullptr
  /// disables. Not for timed runs.
  void set_trace(std::array<Trace, 3>* sink) { trace_ = sink; }

 private:
  void run_stage(std::size_t k, NumaArray& src, NumaArray& dst);

  Direction dir_;
  FftOptions opts_;
  StagePlan plan_;
  std::vector<std::shared_ptr<Fft1d>> ffts_;  // one per stage
  // Pooled or private (FftOptions::team_pool); the pipeline splits it
  // into one group per socket.
  std::shared_ptr<ThreadTeam> team_;
  std::unique_ptr<DoubleBufferPipeline> pipeline_;
  std::array<Trace, 3>* trace_ = nullptr;
  LinkTraffic traffic_;
};

}  // namespace bwfft
