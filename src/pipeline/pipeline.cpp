#include "pipeline/pipeline.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/error.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"

namespace bwfft {

const char* fusion_name(Fusion f) {
  switch (f) {
    case Fusion::None: return "none";
    case Fusion::Load: return "load";
    case Fusion::LoadStore: return "load+store";
  }
  return "?";
}

DoubleBufferPipeline::DoubleBufferPipeline(ThreadTeam& team, RolePlan roles,
                                           idx_t block_elems)
    : DoubleBufferPipeline(team, std::move(roles), block_elems, 1) {}

DoubleBufferPipeline::DoubleBufferPipeline(ThreadTeam& team, RolePlan roles,
                                           idx_t block_elems, int groups)
    : team_(team),
      roles_(std::move(roles)),
      block_elems_(block_elems),
      groups_(groups) {
  BWFFT_CHECK(block_elems > 0, "pipeline block must be non-empty");
  BWFFT_CHECK(groups >= 1 && roles_.total * groups == team.size(),
              "role plan size times groups must match team size");
  // Split shares two block halves per group; Private gives every thread
  // its own claim tile and never allocates the halves. The buffer is the
  // hottest multi-MB allocation in the system (every block passes through
  // it twice); prefer huge pages for it, degrading to plain aligned
  // memory when they are unavailable (fault site "alloc.huge"). The pages
  // are not touched here: the first load faults them in on the thread
  // that uses them.
  const idx_t slots = roles_.data > 0 ? 2 : roles_.total;
  for (int g = 0; g < groups_; ++g) {
    buffers_.emplace_back(static_cast<std::size_t>(slots * block_elems_),
                          AllocPlacement::HugePage);
  }
  counters_ = std::make_unique<ClaimCounter[]>(
      static_cast<std::size_t>(groups_));
  // One group meets at the team barrier; split teams get one per group,
  // with the team barrier's stall watchdog (armed when stall faults are
  // scheduled), so a lost group thread surfaces as kStall.
  for (int g = 0; groups_ > 1 && g < groups_; ++g) {
    group_barriers_.push_back(std::make_unique<SpinBarrier>(roles_.total));
    group_barriers_.back()->set_stall_timeout_ms(
        team.barrier().stall_timeout_ms());
  }
}

namespace {

/// Straggler injector with epoch selection: "pipeline.stall/<step>=<ms>"
/// delays one thread at the chosen pipeline step, or under Private at the
/// start of that claim (the @skip field picks which of the threads
/// reaching that step stalls). The team's stall watchdog then diagnoses
/// the loss as kStall instead of hanging.
void straggle([[maybe_unused]] idx_t step) {
#if defined(BWFFT_FAULT)
  if (fault::active()) {
    std::int64_t delay_ms = 0;
    if (fault::should_fire_value(fault::kSitePipelineStall,
                                 static_cast<long long>(step), &delay_ms)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(delay_ms > 0 ? delay_ms : 1000));
    }
  }
#endif
}

}  // namespace

void DoubleBufferPipeline::wait_at_barrier(SpinBarrier& barrier, idx_t step) {
  straggle(step);
  // One slice + BarrierWaitNs per thread per barrier: the wait time IS the
  // pipeline's load-imbalance signal (a starved role shows up here).
  BWFFT_OBS_TASK(obs_wait, "barrier", 'B', step, BarrierWaitNs);
  barrier.arrive_and_wait();
}

void DoubleBufferPipeline::record(idx_t step, TraceEvent::Kind kind,
                                  idx_t iter, int h, int tid, int group) {
  if (!trace_) return;
  std::lock_guard<std::mutex> lk(trace_mu_);
  trace_->push_back({step, kind, iter, h, tid, group});
}

void DoubleBufferPipeline::execute(const PipelineStage& stage) {
  BWFFT_CHECK(groups_ == 1, "a grouped pipeline runs one stage per group");
  run_groups(&stage);
}

void DoubleBufferPipeline::execute(const std::vector<PipelineStage>& stages) {
  BWFFT_CHECK(static_cast<int>(stages.size()) == groups_,
              "need one stage per pipeline group");
  run_groups(stages.data());
}

void DoubleBufferPipeline::run_groups(const PipelineStage* stages) {
  for (int g = 0; g < groups_; ++g) {
    BWFFT_CHECK(stages[g].iterations >= 1, "stage needs >= 1 iteration");
    BWFFT_CHECK(stages[g].compute && (stages[g].store || !stages[g].load),
                "a stage computes, and fuses its store only with its load");
    BWFFT_CHECK(roles_.data == 0 || stages[g].fusion() == Fusion::None,
                "the Split schedule runs unfused stages only");
  }
  util_ = RoleUtilization{};
  if (roles_.data == 0) util_.min_claims = std::numeric_limits<idx_t>::max();
  for (int g = 0; g < groups_; ++g) {
    counters_[static_cast<std::size_t>(g)].next = 0;
  }
  Timer wall;
  try {
    team_.run([&](int tid) {
      const int g = tid / roles_.total;
      try {
        run_thread(stages[g], g, tid % roles_.total);
      } catch (...) {
        // The first failure in a group aborts the group's barrier, so its
        // mates drain (they throw at their next wait) instead of waiting
        // forever for a party that will never arrive. Their abort
        // diagnoses are dropped: the original error is the one
        // ThreadTeam::run rethrows.
        if (barrier(g).aborted()) return;
        barrier(g).abort();
        throw;
      }
    });
  } catch (...) {
    // Every worker has finished, so aborted group barriers can be re-armed
    // (ThreadTeam::run re-arms its own).
    for (auto& b : group_barriers_) {
      if (b->aborted()) b->reset_abort();
    }
    throw;
  }
  util_.wall_seconds = wall.seconds();
}

void DoubleBufferPipeline::run_thread(const PipelineStage& stage, int group,
                                      int tid) {
  using Kind = TraceEvent::Kind;
  SpinBarrier& bar = barrier(group);
  const idx_t iters = stage.iterations;
  const bool is_compute = roles_.is_compute(tid);
  const bool is_private = roles_.data == 0;
  // A Private claim is always run whole: rank 0 of 1 part.
  const int rank = is_private ? 0 : roles_.group_rank(tid);
  const int parts = is_private ? 1 : is_compute ? roles_.compute : roles_.data;
  double t_load = 0, t_comp = 0, t_store = 0;
  idx_t claims = 0;

  // One task: timed into its busy time, an obs slice, a trace event.
  auto load = [&](idx_t step, idx_t i, int h) {
    Timer t;
    {
      BWFFT_OBS_TASK(obs_task, "load", 'L', i, LoadBusyNs);
      stage.load(i, slot(group, h), rank, parts);
    }
    t_load += t.seconds();
    record(step, Kind::Load, i, h, tid, group);
  };
  auto compute = [&](idx_t step, idx_t i, int h) {
    Timer t;
    {
      BWFFT_OBS_TASK(obs_task, "compute", 'C', i, ComputeBusyNs);
      stage.compute(i, slot(group, h), rank, parts);
    }
    t_comp += t.seconds();
    record(step, Kind::Compute, i, h, tid, group);
  };
  auto store = [&](idx_t step, idx_t i, int h) {
    Timer t;
    {
      BWFFT_OBS_TASK(obs_task, "store", 'S', i, StoreBusyNs);
      stage.store(i, slot(group, h), rank, parts);
    }
    t_store += t.seconds();
    record(step, Kind::Store, i, h, tid, group);
  };

  if (is_private) {
    // Private schedule: claim i from the group's counter until none is
    // left, and run L(i), C(i), S(i) back to back on this thread's tile
    // (only C, or C and S, when the stage fuses its data tasks). No other
    // thread touches the tile, and the next claim's first task follows
    // this claim's last in program order. The claims are keyed by index
    // in the trace, the obs slices and the stall fault.
    std::atomic<idx_t>& next = counters_[static_cast<std::size_t>(group)].next;
    for (idx_t i = next.fetch_add(1); i < iters; i = next.fetch_add(1)) {
      straggle(i);
      if (stage.load) load(i, i, tid);
      compute(i, i, tid);
      if (stage.store) store(i, i, tid);
      ++claims;
    }
    // Drain the write-combining buffers once, then meet once: the stage's
    // only barrier publishes every claim to the next stage.
    stream_fence();
    wait_at_barrier(bar, iters);
  } else {
    // Table II schedule. Steps 0 .. iters+1; at step i the data threads
    // retire block i-2 and fetch block i on half (i mod 2) while the
    // compute threads transform block i-1 on the other half.
    for (idx_t step = 0; step < iters + 2; ++step) {
      if (!is_compute) {
        const int h = static_cast<int>(step % 2);
        if (step >= 2) store(step, step - 2, h);
        if (step < iters) load(step, step, h);
        // Make the streaming stores of this step globally visible before
        // the barrier hands the half back to the compute threads.
        stream_fence();
      } else if (step >= 1 && step <= iters) {
        compute(step, step - 1, static_cast<int>((step + 1) % 2));
      }
      wait_at_barrier(bar, step);
    }
  }

  std::lock_guard<std::mutex> lk(trace_mu_);
  util_.load_seconds += t_load;
  util_.compute_seconds += t_comp;
  util_.store_seconds += t_store;
  if (is_private) {
    util_.min_claims = std::min(util_.min_claims, claims);
    util_.max_claims = std::max(util_.max_claims, claims);
  }
}

idx_t default_block_elems(const MachineTopology& topo) {
  // Both halves together occupy LLC/2 (§IV-A): per-half block = LLC/4.
  return std::max<idx_t>(topo.shared_buffer_elems() / 2, 1);
}

}  // namespace bwfft
