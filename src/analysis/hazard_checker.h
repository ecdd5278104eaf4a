// Pipeline hazard checker — checked-build validation of the Table II
// software-pipeline schedule.
//
// The double-buffer pipeline is racy by design: data threads stream one
// buffer half while compute threads transform the other, synchronised only
// by the team spin barrier. A scheduling or partitioning bug here corrupts
// results silently — it does not crash. This module proves, after the
// fact, that an execution obeyed the invariants the design depends on:
//
//   Schedule (from the TraceEvent stream of one execute() call):
//     S1  load(i) happens at step i on half i mod 2, steps 0..iters-1;
//     S2  store(i) happens at step i+2 on half i mod 2, steps 2..iters+1;
//     S3  compute(i) happens at step i+1 on half i mod 2 — which is the
//         OTHER half from the one being loaded/stored at that step;
//     S4  on every data thread, store(i-2) precedes load(i) within a step
//         (the store must retire the half before it is refilled);
//     S5  prologue/steady/epilogue counts match: every data thread emits
//         exactly one load per step in [0, iters) and one store per step in
//         [2, iters+2); every compute thread exactly one compute per step
//         in [1, iters]; nothing else.
//
//   With no data threads the Private schedule is expected instead: every
//   claim i in [0, iters) runs exactly once, each of its stage's tasks
//   (load, compute and store, or fewer on a fused stage) at step i on one
//   thread's own tile (half = tid), in the order L(i) -> C(i) -> S(i)
//   among those present, and a thread's tile holds one claim at a time
//   (the claim's last task precedes that thread's next claim). Threads are
//   not ordered against each other, and any thread may run any claim.
//
//   Partitioning (from a shadow access map): the (rank, parts) partitions
//     of a task are pairwise disjoint and, together, cover the whole block.
//     Each rank's write-set is discovered by probing the task callback
//     sequentially against a sentinel-poisoned buffer, so no cooperation
//     from the stage implementation is needed. A Private claim is one
//     partition (parts = 1) whose load write-set must equal its compute
//     write-set: a thread only ever transforms the claim it loaded. A
//     fused claim has no load and uses its tile only as work space, so
//     its writes are probed over the stage output instead
//     (probe_outputs).
//
// Violations carry (step, iteration, half, thread) context and render into
// a human-readable report; HazardChecker::run_checked turns a dirty report
// into a bwfft::Error via BWFFT_CHECK.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/intervals.h"
#include "common/types.h"
#include "parallel/roles.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"

namespace bwfft::analysis {

using Trace = std::vector<DoubleBufferPipeline::TraceEvent>;

struct HazardViolation {
  enum class Kind {
    RoleMismatch,      ///< task kind executed by a thread of the wrong role
    WrongStep,         ///< task at a step inconsistent with its iteration
    WrongHalf,         ///< task touched the wrong buffer half
    ComputeOverlap,    ///< compute on a half being loaded/stored that step
    StoreLoadOrder,    ///< load(i) ran before store(i-2) released the half
    MissingTask,       ///< schedule slot with no recorded task
    DuplicateTask,     ///< schedule slot executed more than once
    PartitionOverlap,  ///< two ranks wrote the same block element
    PartitionGap,      ///< no rank wrote a block element
    ProgramOrder,      ///< Private: a thread ran L/C/S of claims out of order
    SliceMismatch,     ///< Private: a claim loaded and computed by
                       ///< different ranks or threads
  };

  Kind kind;
  idx_t step = -1;  ///< pipeline step (-1 when not applicable)
  idx_t iter = -1;  ///< block iteration (-1 when not applicable)
  int half = -1;    ///< buffer half (-1 when not applicable)
  int tid = -1;     ///< team thread id (-1 when not applicable)
  std::string detail;

  std::string str() const;
};

struct HazardReport {
  idx_t iterations = 0;
  std::size_t events = 0;  ///< trace events inspected
  std::vector<HazardViolation> violations;

  bool clean() const { return violations.empty(); }
  /// Multi-line rendering: one header plus one line per violation.
  std::string str() const;
};

/// Validate the schedule invariants S1–S5 against a recorded trace.
/// With data threads in the role plan the Table II overlap schedule is
/// expected; with roles.data == 0 the Private schedule is expected
/// instead, each claim running the tasks `fused` leaves (Split stages
/// are never fused).
HazardReport audit_schedule(const Trace& trace, idx_t iterations,
                            const RolePlan& roles,
                            Fusion fused = Fusion::None);

/// Shadow access map of one pipeline task: writers[e] lists the ranks that
/// wrote block element e during the sequential per-rank probe.
struct PartitionMap {
  idx_t block_elems = 0;
  int parts = 0;
  std::vector<std::vector<int>> writers;
};

/// Discover each rank's write-set by running `task(iter, buf, rank, parts)`
/// once per rank against a buffer poisoned with a sentinel value; elements
/// that no longer hold the sentinel afterwards belong to that rank. (A
/// task that writes the exact sentinel bit pattern would go unnoticed; the
/// sentinel is chosen to make that astronomically unlikely for real data.)
PartitionMap probe_partition(
    const std::function<void(idx_t, cplx*, int, int)>& task, idx_t iter,
    idx_t block_elems, int parts);

/// Discover each claim's write-set over a stage OUTPUT array: run
/// `task(i, tile, 0, 1)` for every claim i in [0, iterations), each
/// against `out` poisoned with the sentinel, on a scratch tile of
/// `tile_elems`. writers[e] lists the claims that wrote out[e] (parts =
/// iterations). This is the probe of a fused claim, whose compute writes
/// its rotated destination rather than a tile window. Given the claims'
/// expected store windows (owner = claim, e.g. the static model's), out
/// is poisoned once and each claim is checked against its own windows
/// (untouched before it runs, every element written after), with one
/// scan for stray writes at the end; any miss falls back to the
/// per-claim scan, so the map is the same either way, at the cost of one
/// pass over out instead of one per claim.
PartitionMap probe_outputs(
    const std::function<void(idx_t, cplx*, int, int)>& task,
    idx_t iterations, cplx* out, idx_t out_elems, idx_t tile_elems,
    const std::vector<OwnedWindow>* windows = nullptr);

/// The self-audit of Private stage k of `plan` (its tasks `stage`, which
/// write `dst`, not the stage source): run each claim's compute and store
/// one at a time through probe_outputs against the plan's static store
/// windows, uncounted by obs, and report overlaps and gaps. A misrouted
/// packet overlaps another claim's window and leaves a gap in its own.
/// dst holds garbage afterwards.
HazardReport probe_claim_outputs(const StagePlan& plan, std::size_t k,
                                 const PipelineStage& stage, cplx* dst);

/// Append PartitionOverlap/PartitionGap violations for `map` to `out`.
/// Contiguous runs of elements with the same defect collapse into one
/// violation. `require_cover` enables the gap check (disable for tasks
/// that legitimately touch a sub-range, e.g. a tail iteration).
void audit_partition(const PartitionMap& map, bool require_cover,
                     const std::string& task_name, HazardReport& out);

/// Append a SliceMismatch violation for every run of block elements whose
/// load writer differs from its compute writer (the slice-ownership rule;
/// both maps must be probed with the same parts).
void audit_slices(const PartitionMap& load, const PartitionMap& compute,
                  HazardReport& out);

/// Convenience wrapper: executes stages on a pipeline with tracing on and
/// audits both the schedule and the load/compute partitions afterwards
/// (under Private, a claim's, and also their slice ownership).
class HazardChecker {
 public:
  struct Options {
    bool probe_partitions = true;  ///< sentinel-probe load and compute
    idx_t probe_iter = 0;          ///< iteration to probe (0 = a full block)
    bool require_cover = true;     ///< partitions must cover the block
  };

  explicit HazardChecker(DoubleBufferPipeline& pipe);
  HazardChecker(DoubleBufferPipeline& pipe, Options opts);

  /// Run `stage` through pipe.execute() with tracing enabled, then audit.
  /// The stage's data is processed exactly once, as in a bare execute().
  HazardReport check(const PipelineStage& stage);

  /// check(), then throw bwfft::Error carrying the report if it is dirty.
  void run_checked(const PipelineStage& stage);

 private:
  DoubleBufferPipeline& pipe_;
  Options opts_;
};

/// True when pipeline/engine self-checks should run: always in
/// BWFFT_CHECKED builds unless BWFFT_SELF_CHECK=0, and in release builds
/// when BWFFT_SELF_CHECK=1 is exported. Cached after the first call.
bool self_check_enabled();

}  // namespace bwfft::analysis
