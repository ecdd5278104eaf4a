// Symbolic plan verifier — proves schedule and layout invariants over a
// planned configuration WITHOUT executing it.
//
// The PR-1 hazard checker (hazard_checker.h) is a dynamic auditor: it
// replays the trace of one real execution and probes partitions with
// sentinel values, so it only covers the (dims, threads, block, packet)
// points that actually run. This module is the static complement. From a
// transform shape and an FftOptions configuration it derives the exact
// access pattern every engine would execute — each (iteration, rank)
// write window as a StridedInterval, each buffer half window, the
// non-temporal store placement — and proves, by interval algebra instead
// of execution:
//
//   1. per-thread store windows are pairwise disjoint and jointly cover
//      the stage output (sort + sweep over run endpoints; coverage is
//      equivalent to element-count conservation once disjointness and
//      bounds hold);
//   2. every non-temporal store region reaches a stream_fence() on the
//      storing thread before the barrier that publishes it to readers;
//   3. buffer lifetimes across double-buffer epochs never alias live
//      reads: the Load(i) buffer window of one rank never overlaps the
//      pending Store window of ANOTHER rank (the same rank serialises the
//      two by program order — Table II's S4), and each rank stores back
//      exactly the window it loaded. Under the Private schedule the owner
//      is a claim (parts = claims): one window, loaded, transformed and
//      stored by the thread that claimed it;
//   4. element counts are conserved stage to stage.
//
// The schedule itself is verified symbolically as well: the Table II
// recurrences (load(i)@step i, compute(i-1)@step i, store(i-2)@step i,
// halves alternating) generate the one trace a correct Split execution
// can record, the Private recurrences (each claim i once, L(i) C(i) S(i),
// or the tasks a fused stage leaves,
// at step i back to back on one thread's tile, no cross-thread order)
// the traces a Private one can record, and verify_schedule_symbolic()
// diffs any trace against that expectation. make_table2_trace() emits an
// expected trace, which is how
// the symbolic and runtime checkers are cross-checked on identical input
// (tests/static_runtime_crosscheck_test.cpp) and how tools/bwfft_lint
// sweeps the tuner's whole candidate grid in milliseconds.
#pragma once

#include <string>
#include <vector>

#include "analysis/hazard_checker.h"
#include "common/intervals.h"
#include "common/types.h"
#include "fft/options.h"
#include "parallel/roles.h"
#include "pipeline/stage_plan.h"

namespace bwfft::analysis {

/// Symbolic model of one engine stage (or pass/phase). Windows carry an
/// encoded owner = iter * parts + rank, so a violation names both the
/// iteration and the thread.
struct StageModel {
  std::string name;
  idx_t in_elems = 0;   ///< elements read from the stage input array
  idx_t out_elems = 0;  ///< elements written to the stage output array
  idx_t iterations = 1; ///< pipeline blocks or claims (1: single pass)
  int parts = 1;        ///< ranks partitioning each iteration (a claim: 1)
  bool in_place = false;    ///< input and output are the same array
  bool nt_store = false;    ///< stores are non-temporal
  bool fence_before_publish = false;  ///< stream_fence precedes the
                                      ///< barrier that publishes stores
  bool pipelined = false;   ///< driven by the Table II overlap schedule
                            ///< (Split); false under Private

  std::vector<OwnedWindow> loads;   ///< read-set over the input array
  std::vector<OwnedWindow> stores;  ///< write-set over the output array
  idx_t off_slab_elems = 0;  ///< stored outside the storer's slab (link)

  /// Buffer windows: what Load writes and what Store reads. Split: one
  /// per data rank of one block's shared half, owner = rank. Private: one
  /// per claim, owner = claim, at the claim's offset (each claim has the
  /// tile of the thread that runs it).
  std::vector<OwnedWindow> buf_loads;
  std::vector<OwnedWindow> buf_stores;
  idx_t buf_elems = 0;  ///< elements of one half (or tile) per block
};

/// Symbolic model of a whole planned transform.
struct PlanModel {
  std::string engine;        ///< engine label, e.g. "double-buffer"
  std::vector<idx_t> dims;
  idx_t total = 0;
  int threads = 0;           ///< team size p (per socket)
  int sockets = 1;           ///< pipeline groups, one slab each
  int compute_threads = 0;   ///< resolved p_c
  int data_threads = 0;      ///< resolved p_d
  std::vector<StageModel> stages;

  std::string label() const;
};

struct StaticIssue {
  enum class Kind {
    PartitionOverlap,  ///< two (iter, rank) windows write the same element
    PartitionGap,      ///< an output element no window writes
    OutOfBounds,       ///< a window escapes the stage array
    NotConservative,   ///< stage element counts do not balance
    MissingFence,      ///< NT stores published by a barrier with no fence
    EpochAlias,        ///< a Load window aliases another rank's pending
                       ///< Store window in the shared buffer
    SliceOwnership,    ///< a rank loads a buffer window it does not store
    BadModel,          ///< the configuration cannot be modelled
  };

  Kind kind;
  std::string stage;   ///< StageModel::name ("" for plan-level issues)
  std::string detail;

  std::string str() const;
};

struct StaticReport {
  std::string plan;        ///< PlanModel::label() of the verified plan
  std::size_t checks = 0;  ///< individual proofs attempted
  std::vector<StaticIssue> issues;

  bool ok() const { return issues.empty(); }
  std::string str() const;
};

/// Derive the symbolic model the given engine would execute for (dims,
/// opts). opts.engine must be concrete (not Auto/Reference). Double-buffer
/// and stage-parallel models (1D, 2D, 3D) are the windows of the engine's
/// StagePlan (pipeline/stage_plan.h). Returns false with a reason in *why
/// when there is no model or the engine cannot run this shape at all
/// (e.g. Pencil on non-power-of-two dims, SlabPencil in 2D, a packet size
/// that does not divide the fast dimension, the 1D naive DIT) — callers
/// treat that as a skipped configuration, not a failure.
bool build_plan_model(const std::vector<idx_t>& dims, const FftOptions& opts,
                      PlanModel* out, std::string* why);

/// The double-buffer model of `plan`; a socket plan's windows are over
/// the concatenated slabs, through the plan's row maps (socket_row).
PlanModel build_plan_model(const StagePlan& plan);

/// Prove invariants 1–4 over a model. Pure; never executes anything.
StaticReport verify_plan(const PlanModel& model);

/// The trace a correct execution of the Table II schedule must record
/// for `iterations` blocks, or with roles.data == 0 one a correct Private
/// execution may record (claims dealt round-robin, each running the tasks
/// `fused` leaves). Event order matches per-thread program order.
Trace make_table2_trace(idx_t iterations, const RolePlan& roles,
                        Fusion fused = Fusion::None);

/// Verify a trace against the schedule recurrences, independently of
/// audit_schedule(): every event must sit in its unique expected
/// (step, half, tid) slot, every slot must be filled exactly once, and
/// each data thread must retire Store(i-2) before Load(i) within a step
/// (under Private: each claim runs once, the tasks `fused` leaves in
/// L(i) -> C(i) -> S(i) order, back to back on one thread's tile).
/// Returns the same HazardReport shape as the runtime checker so the two
/// can be diffed directly.
HazardReport verify_schedule_symbolic(const Trace& trace, idx_t iterations,
                                      const RolePlan& roles,
                                      Fusion fused = Fusion::None);

}  // namespace bwfft::analysis
