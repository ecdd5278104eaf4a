// Double-buffered software pipeline — the paper's core mechanism
// (§III-B/III-C, Table II, Fig 6).
//
// A stage of the multidimensional FFT is tiled into `iterations` blocks.
// Each block passes through three tasks:
//
//   Load    t[i mod 2] = R_{b,i} x        (data threads, streaming read)
//   Compute t[h] = (I_{b/m} (x) DFT_m) t[h]   (compute threads, in cache)
//   Store   y = W_{b,i} t[i mod 2]        (data threads, rotated NT write)
//
// Software pipelining skews the tasks across a double buffer t[0]/t[1] so
// that while the compute threads work on one half, the data threads retire
// the previous block and stream in the next (Table II):
//
//   step i:  data threads:    Store(i-2) then Load(i)   on t[i mod 2]
//            compute threads: Compute(i-1)              on t[(i+1) mod 2]
//            barrier (the team's, or the group's on a split team)
//
// Steps 0..1 form the prologue, steps 2..iterations-1 the steady state and
// steps iterations..iterations+1 the epilogue. The store precedes the load
// on the same half and both are partitioned identically across the data
// threads, so no thread overwrites a region another is still storing.
// This is the Split schedule (p_d > 0).
//
// With no data threads (p_d = 0) the stage runs the Private schedule
// instead, and a pipeline block is a claim: a whole run of stage rows
// within a core-private budget (StagePlan sizes it to half a core's L2).
// Each thread takes claims from the stage's atomic work counter (one per
// group) and runs L(i), C(i), S(i) of each claim whole (rank 0 of 1
// part) on its own tile, so a thread only ever touches the tile of the
// claim it is working on, and a fast thread takes more claims than a slow
// one. It fences its NT stores once and meets the team once at the end
// of the stage. On a host without SMT every core then issues its own DRAM
// traffic, which the Split roles leave to p_d cores. A fused claim
// (Fusion) runs only the tasks its stage has: its compute reads the
// source and may write the destination itself, so the core's
// out-of-order window overlaps those DRAM misses with the butterflies.
//
// Under Split the shared buffer lives in the last-level cache: its total
// size follows the paper's policy b = LLC/2 (both halves together),
// leaving the rest of the LLC for twiddles and temporaries (§IV-A). Under
// Private the p tiles are core-private and the shared halves are never
// allocated.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/aligned.h"
#include "common/topology.h"
#include "parallel/roles.h"
#include "parallel/team.h"

namespace bwfft {

/// The data tasks a Private claim folds into its compute: none (L, C, S),
/// the load (the first Stockham level reads the stage source; C, S), or
/// the load and the store (the last level also writes the rotated
/// destination; C alone). Split stages always run all three tasks.
enum class Fusion { None, Load, LoadStore };

/// "none", "load" or "load+store".
const char* fusion_name(Fusion f);

/// Callbacks of one tiled stage. Each receives the block (or claim) index,
/// the buffer slot to use, and its partition (rank of `parts`; a claim is
/// always rank 0 of 1); implementations must touch only their partition
/// so tasks can run concurrently. A fused Private stage leaves the tasks
/// its compute performs empty (fusion()).
struct PipelineStage {
  idx_t iterations = 0;
  std::function<void(idx_t iter, cplx* buf, int rank, int parts)> load;
  std::function<void(idx_t iter, cplx* buf, int rank, int parts)> compute;
  std::function<void(idx_t iter, const cplx* buf, int rank, int parts)> store;

  /// The fusion the empty tasks denote (no load: Load; no store either:
  /// LoadStore).
  Fusion fusion() const {
    return load ? Fusion::None : store ? Fusion::Load : Fusion::LoadStore;
  }
};

class DoubleBufferPipeline {
 public:
  /// Schedule-trace event (tests validate the schedules with it). `tid`
  /// is the thread's id within its group. `half` is the buffer slot the
  /// task used: the shared half under Split, the thread's own tile (its
  /// tid) under Private, where `iter` and `step` are the claim index.
  struct TraceEvent {
    idx_t step;
    enum class Kind { Load, Compute, Store } kind;
    idx_t iter;
    int half;
    int tid;
    int group = 0;
  };

  /// `block_elems` is the size of ONE buffer slot: a block b (Split; the
  /// pipeline allocates 2*block_elems for the two halves) or a claim tile
  /// (Private; it allocates one tile per thread).
  DoubleBufferPipeline(ThreadTeam& team, RolePlan roles, idx_t block_elems);

  /// Split `team` into `groups` consecutive sub-teams of roles.total
  /// threads. Each group has its own buffer (a separate allocation), work
  /// counter and barrier and runs its own stage, concurrently with the
  /// others — DualSocketFft3d runs one group per socket. With one group
  /// the team barrier is used.
  DoubleBufferPipeline(ThreadTeam& team, RolePlan roles, idx_t block_elems,
                       int groups);

  idx_t block_elems() const { return block_elems_; }
  const RolePlan& roles() const { return roles_; }

  /// Run one stage: the Table II overlap with data threads in the role
  /// plan (Split), otherwise the Private schedule above.
  void execute(const PipelineStage& stage);

  /// Run stages[g] on group g, all groups at once (one stage per group).
  void execute(const std::vector<PipelineStage>& stages);

  /// Record the schedule of subsequent execute() calls into `sink`
  /// (nullptr disables). Not for timed runs.
  void set_trace(std::vector<TraceEvent>* sink) { trace_ = sink; }

  /// Aggregate busy time per task kind over the last execute() call,
  /// summed across the threads that ran it (every task is timed anyway,
  /// so this is always collected). Under Split busy/(wall * group size)
  /// is the utilisation of the threads that run that task — the soft-DMA
  /// balance the thread-split ablation inspects; under Private every
  /// thread runs all three tasks, so each sum spreads over the whole team.
  struct RoleUtilization {
    double wall_seconds = 0.0;
    double load_seconds = 0.0;     // time in load tasks
    double store_seconds = 0.0;    // time in store tasks
    double compute_seconds = 0.0;  // time in compute tasks
    /// Private: the fewest and most claims one thread took (0 under
    /// Split). Their gap is the imbalance the stage barrier absorbs.
    idx_t min_claims = 0;
    idx_t max_claims = 0;
  };

  const RoleUtilization& last_utilization() const { return util_; }

 private:
  cplx* slot(int group, int h) {
    return buffers_[static_cast<std::size_t>(group)].data() +
           h * block_elems_;
  }
  SpinBarrier& barrier(int group) {
    return groups_ == 1 ? team_.barrier()
                        : *group_barriers_[static_cast<std::size_t>(group)];
  }
  /// Run stages[g] on every group g and time the call.
  void run_groups(const PipelineStage* stages);
  /// Thread `tid` of group `group`: its part of the Table II schedule (or
  /// of the Private one when the role plan has no data threads) on the
  /// group's buffer and barrier. The only software-pipeline step loop in
  /// the library.
  void run_thread(const PipelineStage& stage, int group, int tid);
  void record(idx_t step, TraceEvent::Kind kind, idx_t iter, int h, int tid,
              int group);
  /// Barrier wait with obs accounting (barrier-wait ns, 'B' slices).
  void wait_at_barrier(SpinBarrier& barrier, idx_t step);

  /// A group's Private work counter, alone on its cache line.
  struct alignas(64) ClaimCounter {
    std::atomic<idx_t> next{0};
  };

  ThreadTeam& team_;
  RolePlan roles_;
  idx_t block_elems_;
  int groups_;
  std::vector<AlignedBuffer<cplx>> buffers_;  // per group: 2 halves or p tiles
  std::unique_ptr<ClaimCounter[]> counters_;  // per group (Private)
  std::vector<std::unique_ptr<SpinBarrier>> group_barriers_;  // groups > 1
  std::vector<TraceEvent>* trace_ = nullptr;
  std::mutex trace_mu_;
  RoleUtilization util_;
};

/// The paper's buffer policy (§IV-A): the two halves together take half of
/// the LLC; returns the per-half block size in complex elements.
idx_t default_block_elems(const MachineTopology& topo);

}  // namespace bwfft
