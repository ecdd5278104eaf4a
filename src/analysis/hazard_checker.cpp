#include "analysis/hazard_checker.h"

#include <cstdlib>
#include <sstream>

#include "analysis/static_verify.h"
#include "common/aligned.h"
#include "common/error.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"

namespace bwfft::analysis {

namespace {

using Kind = DoubleBufferPipeline::TraceEvent::Kind;
using VKind = HazardViolation::Kind;

const char* kind_name(VKind k) {
  switch (k) {
    case VKind::RoleMismatch: return "role-mismatch";
    case VKind::WrongStep: return "wrong-step";
    case VKind::WrongHalf: return "wrong-half";
    case VKind::ComputeOverlap: return "compute-overlap";
    case VKind::StoreLoadOrder: return "store-load-order";
    case VKind::MissingTask: return "missing-task";
    case VKind::DuplicateTask: return "duplicate-task";
    case VKind::PartitionOverlap: return "partition-overlap";
    case VKind::PartitionGap: return "partition-gap";
    case VKind::ProgramOrder: return "program-order";
    case VKind::SliceMismatch: return "slice-mismatch";
  }
  return "?";
}

const char* task_name(Kind k) {
  switch (k) {
    case Kind::Load: return "load";
    case Kind::Compute: return "compute";
    case Kind::Store: return "store";
  }
  return "?";
}

// The probe sentinel: an arbitrary, fixed bit pattern far outside the
// range of any real signal. An element still equal to it after a task ran
// was not written by that task.
const cplx kSentinel(-5.4861240687936887e+303, 7.2911220195563593e+303);

}  // namespace

std::string HazardViolation::str() const {
  std::ostringstream os;
  os << "[" << kind_name(kind) << "]";
  if (step >= 0) os << " step " << step;
  if (iter >= 0) os << " iter " << iter;
  if (half >= 0) os << " half " << half;
  if (tid >= 0) os << " tid " << tid;
  os << ": " << detail;
  return os.str();
}

std::string HazardReport::str() const {
  std::ostringstream os;
  if (clean()) {
    os << "hazard report: clean (" << events << " events, " << iterations
       << " iterations)";
    return os.str();
  }
  os << "hazard report: " << violations.size() << " violation(s) over "
     << events << " events, " << iterations << " iterations";
  for (const auto& v : violations) os << "\n  " << v.str();
  return os.str();
}

namespace {

/// The tasks a Private claim of a stage with fusion `fused` runs.
bool claim_has(Kind k, Fusion fused) {
  return k == Kind::Compute || (k == Kind::Load && fused == Fusion::None) ||
         (k == Kind::Store && fused != Fusion::LoadStore);
}

/// audit_schedule under Private: per claim, each of the stage's tasks
/// once, all by the thread that claimed it, in L -> C -> S order among
/// those present; per thread, the tile holds one claim at a time (the
/// claim's last task precedes the thread's next claim's first).
void audit_claims(const Trace& trace, idx_t iterations, const RolePlan& roles,
                  Fusion fused, HazardReport& rep) {
  auto add = [&rep](VKind k, const DoubleBufferPipeline::TraceEvent& ev,
                    std::string detail) {
    rep.violations.push_back(
        {k, ev.step, ev.iter, ev.half, ev.tid, std::move(detail)});
  };
  const Kind first = claim_has(Kind::Load, fused) ? Kind::Load : Kind::Compute;
  const Kind last = claim_has(Kind::Store, fused) ? Kind::Store : Kind::Compute;
  // Per (claim, kind): how often it ran, the first runner, its position.
  const auto nslots = static_cast<std::size_t>(iterations) * 3;
  std::vector<int> count(nslots, 0), runner(nslots, -1);
  std::vector<long> at(nslots, -1);
  std::vector<idx_t> on_tile(static_cast<std::size_t>(roles.total), -1);
  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const auto& ev = trace[idx];
    if (ev.tid < 0 || ev.tid >= roles.total) {
      add(VKind::RoleMismatch, ev, "thread id outside the team");
      continue;
    }
    if (ev.iter < 0 || ev.iter >= iterations || ev.step != ev.iter) {
      add(VKind::WrongStep, ev,
          "private schedule records claim i at step i, i < iterations");
      continue;
    }
    if (ev.half != ev.tid) {
      add(VKind::WrongHalf, ev,
          std::string(task_name(ev.kind)) + " must use its thread's tile");
    }
    const auto slot = static_cast<std::size_t>(ev.iter) * 3 +
                      static_cast<std::size_t>(ev.kind);
    if (count[slot]++ == 0) {
      runner[slot] = ev.tid;
      at[slot] = static_cast<long>(idx);
    }
    idx_t& held = on_tile[static_cast<std::size_t>(ev.tid)];
    if (ev.kind == first) {
      if (held >= 0) {
        add(VKind::ProgramOrder, ev,
            std::string(task_name(first)) + " ran before claim " +
                std::to_string(held) + " retired the tile");
      }
      held = ev.iter;
    }
    if (ev.kind == last && held == ev.iter) held = -1;
  }
  for (idx_t i = 0; i < iterations; ++i) {
    const auto base = static_cast<std::size_t>(i) * 3;
    int owner = -1;
    long prev = -1;
    for (Kind k : {Kind::Load, Kind::Compute, Kind::Store}) {
      const auto slot = base + static_cast<std::size_t>(k);
      const int n = count[slot];
      const bool want = claim_has(k, fused);
      if (want && n == 0) {
        rep.violations.push_back({VKind::MissingTask, i, i, -1, -1,
                                  std::string("claim's ") + task_name(k) +
                                      " did not run"});
      } else if (n > (want ? 1 : 0)) {
        rep.violations.push_back(
            {VKind::DuplicateTask, i, i, -1, -1,
             std::string("claim's ") + task_name(k) + " ran " +
                 std::to_string(n) + " times" +
                 (want ? "" : ", but the stage fuses it into the compute")});
      }
      if (runner[slot] < 0) continue;
      if (owner >= 0 && runner[slot] != owner) {
        rep.violations.push_back(
            {VKind::SliceMismatch, i, i, -1, owner,
             "claim's tasks ran on more than one thread"});
      }
      if (prev >= 0 && at[slot] < prev) {
        rep.violations.push_back({VKind::ProgramOrder, i, i, -1, owner,
                                  "expected load -> compute -> store"});
      }
      if (owner < 0) owner = runner[slot];
      prev = at[slot];
    }
  }
}

}  // namespace

HazardReport audit_schedule(const Trace& trace, idx_t iterations,
                            const RolePlan& roles, Fusion fused) {
  HazardReport rep;
  rep.iterations = iterations;
  rep.events = trace.size();
  BWFFT_CHECK(iterations >= 1, "schedule audit needs >= 1 iteration");
  BWFFT_CHECK(roles.total >= 1, "schedule audit needs a role plan");

  if (roles.data == 0) {
    audit_claims(trace, iterations, roles, fused, rep);
    return rep;
  }
  auto add = [&rep](VKind k, idx_t step, idx_t iter, int half, int tid,
                    std::string detail) {
    rep.violations.push_back({k, step, iter, half, tid, std::move(detail)});
  };

  const idx_t nsteps = iterations + 2;

  // counts[tid][step * 3 + kind]; first/last trace index of each data
  // thread's store/load per step for the S4 ordering check.
  const auto nslots = static_cast<std::size_t>(nsteps) * 3;
  std::vector<std::vector<int>> counts(
      static_cast<std::size_t>(roles.total), std::vector<int>(nslots, 0));
  struct StepOrder {
    long store = -1;
    long load = -1;
  };
  std::vector<std::vector<StepOrder>> order(
      static_cast<std::size_t>(roles.total),
      std::vector<StepOrder>(static_cast<std::size_t>(nsteps)));

  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const auto& ev = trace[idx];
    if (ev.tid < 0 || ev.tid >= roles.total) {
      add(VKind::RoleMismatch, ev.step, ev.iter, ev.half, ev.tid,
          "thread id outside the team");
      continue;
    }
    const bool is_compute = roles.is_compute(ev.tid);
    bool in_window = false;
    switch (ev.kind) {
      case Kind::Load:
        if (is_compute) {
          add(VKind::RoleMismatch, ev.step, ev.iter, ev.half, ev.tid,
              "load executed by a compute thread");
        }
        in_window = ev.step >= 0 && ev.step < iterations;
        if (!in_window || ev.step != ev.iter) {
          add(VKind::WrongStep, ev.step, ev.iter, ev.half, ev.tid,
              "load(i) must run at step i, steps [0, iters)");
        }
        break;
      case Kind::Store:
        if (is_compute) {
          add(VKind::RoleMismatch, ev.step, ev.iter, ev.half, ev.tid,
              "store executed by a compute thread");
        }
        in_window = ev.step >= 2 && ev.step < iterations + 2;
        if (!in_window || ev.step != ev.iter + 2) {
          add(VKind::WrongStep, ev.step, ev.iter, ev.half, ev.tid,
              "store(i) must run at step i+2, steps [2, iters+2)");
        }
        break;
      case Kind::Compute:
        if (!is_compute) {
          add(VKind::RoleMismatch, ev.step, ev.iter, ev.half, ev.tid,
              "compute executed by a data thread");
        }
        in_window = ev.step >= 1 && ev.step <= iterations;
        if (!in_window || ev.step != ev.iter + 1) {
          add(VKind::WrongStep, ev.step, ev.iter, ev.half, ev.tid,
              "compute(i) must run at step i+1, steps [1, iters]");
        }
        break;
    }
    // All tasks of iteration i touch half i mod 2 — for compute that is
    // automatically the half opposite to the one loaded/stored that step.
    if (ev.half != static_cast<int>(ev.iter % 2)) {
      add(VKind::WrongHalf, ev.step, ev.iter, ev.half, ev.tid,
          std::string(task_name(ev.kind)) + "(i) must use half i mod 2");
    }
    if (ev.step >= 0 && ev.step < nsteps) {
      const auto tid = static_cast<std::size_t>(ev.tid);
      const auto su = static_cast<std::size_t>(ev.step);
      ++counts[tid][su * 3 + static_cast<std::size_t>(ev.kind)];
      if (!is_compute) {
        if (ev.kind == Kind::Store && order[tid][su].store < 0) {
          order[tid][su].store = static_cast<long>(idx);
        }
        if (ev.kind == Kind::Load && order[tid][su].load < 0) {
          order[tid][su].load = static_cast<long>(idx);
        }
      }
    }
  }

  // S3 cross-check from the raw halves: a compute event sharing a step AND
  // a half with any load/store is the exact overlap bug the double buffer
  // exists to prevent, so it gets its own violation kind on top of any
  // wrong-step/wrong-half diagnostics above.
  std::vector<int> data_half_mask(static_cast<std::size_t>(nsteps), 0);
  for (const auto& ev : trace) {
    if (ev.kind != Kind::Compute && ev.step >= 0 && ev.step < nsteps &&
        (ev.half == 0 || ev.half == 1)) {
      data_half_mask[static_cast<std::size_t>(ev.step)] |= 1 << ev.half;
    }
  }
  for (const auto& ev : trace) {
    if (ev.kind == Kind::Compute && ev.step >= 0 && ev.step < nsteps &&
        (ev.half == 0 || ev.half == 1) &&
        (data_half_mask[static_cast<std::size_t>(ev.step)] &
         (1 << ev.half)) != 0) {
      add(VKind::ComputeOverlap, ev.step, ev.iter, ev.half, ev.tid,
          "compute ran on a half being loaded/stored at the same step");
    }
  }

  // S5: every expected slot exactly once; S4: store before load per step.
  auto scan_slot = [&](int tid, idx_t step, Kind kind) {
    const int n = counts[static_cast<std::size_t>(tid)]
                        [static_cast<std::size_t>(step) * 3 +
                         static_cast<std::size_t>(kind)];
    if (n == 0) {
      add(VKind::MissingTask, step, -1, -1, tid,
          std::string("expected ") + task_name(kind) + " did not run");
    } else if (n > 1) {
      add(VKind::DuplicateTask, step, -1, -1, tid,
          std::string(task_name(kind)) + " ran " + std::to_string(n) +
              " times in one step");
    }
  };
  for (int tid = 0; tid < roles.total; ++tid) {
    if (roles.is_compute(tid)) {
      for (idx_t s = 1; s <= iterations; ++s) scan_slot(tid, s, Kind::Compute);
    } else {
      for (idx_t s = 0; s < iterations; ++s) scan_slot(tid, s, Kind::Load);
      for (idx_t s = 2; s < iterations + 2; ++s) scan_slot(tid, s, Kind::Store);
      for (idx_t s = 2; s < iterations; ++s) {
        const auto& o = order[static_cast<std::size_t>(tid)]
                             [static_cast<std::size_t>(s)];
        if (o.store >= 0 && o.load >= 0 && o.load < o.store) {
          add(VKind::StoreLoadOrder, s, s, static_cast<int>(s % 2), tid,
              "load(" + std::to_string(s) + ") ran before store(" +
                  std::to_string(s - 2) + ") retired the half");
        }
      }
    }
  }
  return rep;
}

PartitionMap probe_partition(
    const std::function<void(idx_t, cplx*, int, int)>& task, idx_t iter,
    idx_t block_elems, int parts) {
  BWFFT_CHECK(task != nullptr, "cannot probe an empty task");
  BWFFT_CHECK(block_elems >= 1, "probe needs a non-empty block");
  BWFFT_CHECK(parts >= 1, "probe needs >= 1 partition");

  PartitionMap map;
  map.block_elems = block_elems;
  map.parts = parts;
  map.writers.resize(static_cast<std::size_t>(block_elems));

  AlignedBuffer<cplx> buf(static_cast<std::size_t>(block_elems));
  for (int rank = 0; rank < parts; ++rank) {
    for (idx_t e = 0; e < block_elems; ++e) buf.data()[e] = kSentinel;
    task(iter, buf.data(), rank, parts);
    for (idx_t e = 0; e < block_elems; ++e) {
      if (buf.data()[e] != kSentinel) {
        map.writers[static_cast<std::size_t>(e)].push_back(rank);
      }
    }
  }
  return map;
}

namespace {

/// f(e) for every element e of iv.
template <class F>
void for_each_elem(const StridedInterval& iv, F f) {
  for (idx_t c = 0; c < iv.count; ++c) {
    for (idx_t w = 0; w < iv.width; ++w) f(iv.begin + c * iv.stride + w);
  }
}

/// The windowed probe of probe_outputs: true, with `map` filled, when
/// every claim wrote exactly its windows and nothing else.
bool probe_windows(const std::function<void(idx_t, cplx*, int, int)>& task,
                   idx_t iterations, cplx* out, idx_t out_elems, cplx* tile,
                   const std::vector<OwnedWindow>& windows,
                   PartitionMap* map) {
  std::vector<std::vector<StridedInterval>> own(
      static_cast<std::size_t>(iterations));
  for (const OwnedWindow& w : windows) {
    if (w.owner < 0 || w.owner >= iterations || w.iv.begin < 0 ||
        w.iv.end() > out_elems) {
      return false;
    }
    own[static_cast<std::size_t>(w.owner)].push_back(w.iv);
  }
  for (idx_t e = 0; e < out_elems; ++e) out[e] = kSentinel;
  for (idx_t i = 0; i < iterations; ++i) {
    const auto& ivs = own[static_cast<std::size_t>(i)];
    bool ok = true;
    for (const StridedInterval& iv : ivs) {
      for_each_elem(iv, [&](idx_t e) { ok = ok && out[e] == kSentinel; });
    }
    if (!ok) return false;  // an earlier claim wrote claim i's window
    task(i, tile, 0, 1);
    stream_fence();
    for (const StridedInterval& iv : ivs) {
      for_each_elem(iv, [&](idx_t e) {
        ok = ok && out[e] != kSentinel;
        out[e] = kSentinel;
        map->writers[static_cast<std::size_t>(e)].push_back(
            static_cast<int>(i));
      });
    }
    if (!ok) return false;  // claim i left part of its window unwritten
  }
  for (idx_t e = 0; e < out_elems; ++e) {
    if (out[e] != kSentinel) return false;  // a write outside its window
  }
  return true;
}

}  // namespace

PartitionMap probe_outputs(
    const std::function<void(idx_t, cplx*, int, int)>& task,
    idx_t iterations, cplx* out, idx_t out_elems, idx_t tile_elems,
    const std::vector<OwnedWindow>* windows) {
  BWFFT_CHECK(task != nullptr, "cannot probe an empty task");
  BWFFT_CHECK(iterations >= 1 && out_elems >= 1 && tile_elems >= 1,
              "probe needs claims, an output and a tile");
  PartitionMap map;
  map.block_elems = out_elems;
  map.parts = static_cast<int>(iterations);
  map.writers.resize(static_cast<std::size_t>(out_elems));
  AlignedBuffer<cplx> tile(static_cast<std::size_t>(tile_elems));
  if (windows != nullptr &&
      probe_windows(task, iterations, out, out_elems, tile.data(), *windows,
                    &map)) {
    return map;
  }
  for (auto& w : map.writers) w.clear();
  for (idx_t i = 0; i < iterations; ++i) {
    for (idx_t e = 0; e < out_elems; ++e) out[e] = kSentinel;
    task(i, tile.data(), 0, 1);
    stream_fence();  // the claim's streaming stores, before the scan
    for (idx_t e = 0; e < out_elems; ++e) {
      if (out[e] != kSentinel) {
        map.writers[static_cast<std::size_t>(e)].push_back(static_cast<int>(i));
      }
    }
  }
  return map;
}

HazardReport probe_claim_outputs(const StagePlan& plan, std::size_t k,
                                 const PipelineStage& stage, cplx* dst) {
  // The probe's bytes are not the execute's, so it runs uncounted.
  obs::UncountedScope uncounted;
  const PlannedStage& s = plan.stages[k];
  const auto claim = [&stage](idx_t i, cplx* tile, int, int) {
    stage.compute(i, tile, 0, 1);
    if (stage.store) stage.store(i, tile, 0, 1);
  };
  const PlanModel model = build_plan_model(plan);
  HazardReport rep;
  audit_partition(probe_outputs(claim, s.iterations, dst, plan.total,
                                s.rows_per_block * s.row_elems,
                                &model.stages[k].stores),
                  /*require_cover=*/true, std::string(s.name) + " claims",
                  rep);
  return rep;
}

void audit_partition(const PartitionMap& map, bool require_cover,
                     const std::string& task_name, HazardReport& out) {
  // Classify every element, then collapse maximal runs with an identical
  // defect (and identical writer set) into single violations.
  auto classify = [&](idx_t e) -> int {
    const std::size_t n = map.writers[static_cast<std::size_t>(e)].size();
    if (n > 1) return 2;
    if (n == 0 && require_cover) return 1;
    return 0;
  };
  idx_t e = 0;
  while (e < map.block_elems) {
    const int cls = classify(e);
    if (cls == 0) {
      ++e;
      continue;
    }
    const auto& ws = map.writers[static_cast<std::size_t>(e)];
    idx_t end = e + 1;
    while (end < map.block_elems && classify(end) == cls &&
           map.writers[static_cast<std::size_t>(end)] == ws) {
      ++end;
    }
    std::ostringstream os;
    os << task_name << " elements [" << e << ", " << end << ") of block "
       << map.block_elems << " (" << map.parts << " partitions): ";
    if (cls == 2) {
      os << "written by ranks {";
      for (std::size_t i = 0; i < ws.size(); ++i) os << (i ? "," : "") << ws[i];
      os << "}";
      out.violations.push_back(
          {HazardViolation::Kind::PartitionOverlap, -1, -1, -1, -1, os.str()});
    } else {
      os << "written by no rank";
      out.violations.push_back(
          {HazardViolation::Kind::PartitionGap, -1, -1, -1, -1, os.str()});
    }
    e = end;
  }
}

void audit_slices(const PartitionMap& load, const PartitionMap& compute,
                  HazardReport& out) {
  BWFFT_CHECK(load.block_elems == compute.block_elems &&
                  load.parts == compute.parts,
              "slice audit needs maps probed over the same block and parts");
  const auto differs = [&](idx_t e) {
    const auto i = static_cast<std::size_t>(e);
    return load.writers[i] != compute.writers[i];
  };
  idx_t e = 0;
  while (e < load.block_elems) {
    if (!differs(e)) {
      ++e;
      continue;
    }
    idx_t end = e + 1;
    while (end < load.block_elems && differs(end)) ++end;
    std::ostringstream os;
    os << "elements [" << e << ", " << end << ") of block " << load.block_elems
       << " (" << load.parts
       << " partitions): loaded by a different rank than the one that "
          "transforms them";
    out.violations.push_back(
        {HazardViolation::Kind::SliceMismatch, -1, -1, -1, -1, os.str()});
    e = end;
  }
}

HazardChecker::HazardChecker(DoubleBufferPipeline& pipe)
    : HazardChecker(pipe, Options()) {}

HazardChecker::HazardChecker(DoubleBufferPipeline& pipe, Options opts)
    : pipe_(pipe), opts_(opts) {}

HazardReport HazardChecker::check(const PipelineStage& stage) {
  Trace trace;
  pipe_.set_trace(&trace);
  try {
    pipe_.execute(stage);
  } catch (...) {
    pipe_.set_trace(nullptr);
    throw;
  }
  pipe_.set_trace(nullptr);

  HazardReport rep = audit_schedule(trace, stage.iterations, pipe_.roles(),
                                    stage.fusion());
  if (opts_.probe_partitions) {
    // A Private claim is one partition: rank 0 of 1 on the tile. A fused
    // claim (no load task) uses the tile only as work space, so its
    // compute has no tile window to probe.
    const RolePlan& roles = pipe_.roles();
    const bool split = roles.data > 0;
    PartitionMap load, compute;
    if (stage.load) {
      load = probe_partition(stage.load, opts_.probe_iter,
                             pipe_.block_elems(), split ? roles.data : 1);
      audit_partition(load, opts_.require_cover, "load", rep);
    }
    if (stage.compute && stage.load) {
      compute = probe_partition(stage.compute, opts_.probe_iter,
                                pipe_.block_elems(), split ? roles.compute : 1);
      audit_partition(compute, opts_.require_cover, "compute", rep);
    }
    if (!split && stage.load && stage.compute) {
      audit_slices(load, compute, rep);
    }
  }
  return rep;
}

void HazardChecker::run_checked(const PipelineStage& stage) {
  const HazardReport rep = check(stage);
  BWFFT_CHECK(rep.clean(), "pipeline hazards detected:\n" + rep.str());
}

bool self_check_enabled() {
  static const bool on = [] {
    const char* e = std::getenv("BWFFT_SELF_CHECK");
#ifdef BWFFT_CHECKED
    return !(e != nullptr && e[0] == '0');
#else
    return e != nullptr && e[0] == '1';
#endif
  }();
  return on;
}

}  // namespace bwfft::analysis
