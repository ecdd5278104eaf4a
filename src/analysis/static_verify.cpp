#include "analysis/static_verify.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "kernels/twiddle.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"

namespace bwfft::analysis {

namespace {

const char* issue_kind_name(StaticIssue::Kind k) {
  switch (k) {
    case StaticIssue::Kind::PartitionOverlap: return "partition-overlap";
    case StaticIssue::Kind::PartitionGap: return "partition-gap";
    case StaticIssue::Kind::OutOfBounds: return "out-of-bounds";
    case StaticIssue::Kind::NotConservative: return "not-conservative";
    case StaticIssue::Kind::MissingFence: return "missing-fence";
    case StaticIssue::Kind::EpochAlias: return "epoch-alias";
    case StaticIssue::Kind::SliceOwnership: return "slice-ownership";
    case StaticIssue::Kind::BadModel: return "bad-model";
  }
  return "?";
}

const char* engine_label(EngineKind k) {
  switch (k) {
    case EngineKind::Reference: return "reference";
    case EngineKind::Pencil: return "pencil";
    case EngineKind::StageParallel: return "stage-parallel";
    case EngineKind::SlabPencil: return "slab-pencil";
    case EngineKind::DoubleBuffer: return "double-buffer";
    case EngineKind::Auto: return "auto";
  }
  return "?";
}

std::vector<DoubleBufferPipeline::TraceEvent::Kind> claim_tasks(Fusion fused);

void add_issue(StaticReport& rep, StaticIssue::Kind kind, std::string stage,
               std::string detail) {
  rep.issues.push_back({kind, std::move(stage), std::move(detail)});
}

/// Decode the owner tag (iter * parts + rank) for violation messages.
std::string owner_str(int owner, int parts) {
  if (owner < 0 || parts < 1) return "?";
  std::ostringstream os;
  os << "iter " << owner / parts << " rank " << owner % parts;
  return os.str();
}

/// True when two strided windows share any element. Expands the smaller
/// run list and tests each run against the other interval's arithmetic —
/// the buffer windows this guards are one or two runs each.
bool windows_overlap(const StridedInterval& a, const StridedInterval& b) {
  if (a.elems() <= 0 || b.elems() <= 0) return false;
  for (idx_t i = 0; i < a.count; ++i) {
    const idx_t ab = a.begin + i * a.stride;
    const idx_t ae = ab + a.width;
    for (idx_t j = 0; j < b.count; ++j) {
      const idx_t bb = b.begin + j * b.stride;
      if (ab < bb + b.width && bb < ae) return true;
    }
  }
  return false;
}

/// True when two strided windows denote the same elements run for run.
bool same_window(const StridedInterval& a, const StridedInterval& b) {
  return a.begin == b.begin && a.width == b.width && a.count == b.count &&
         (a.count <= 1 || a.stride == b.stride);
}

/// Read and write windows of socket `socket`'s rows [row, row + nrows) of
/// stage `s` (a row is the stage's tiling unit, see PlannedStage) over
/// the concatenated slabs.
void add_row_windows(const StagePlan& plan, const PlannedStage& s, int socket,
                     idx_t row, idx_t nrows, int owner, StageModel* st) {
  const idx_t slab = plan.total / plan.sockets;
  const StridedInterval rows_iv = StridedInterval::contiguous(
      socket * slab + row * s.row_elems, nrows * s.row_elems);
  switch (s.kind) {
    case StageKind::Rotated:
    case StageKind::Rows: {
      // rotate_store_rows: packet p of grid row r lands at
      // out[(p*rows + r)*mu] (of the socket's slab on a local stage), so
      // consecutive grid rows' packets interleave every rows*mu elements.
      // A Rows stage is the same rotation of its n2 x R tiles (packet j
      // of row group q at j * n1 + q * R); only its load transposes.
      const StageGeometry& g = s.geom;
      const bool local = slab_runs(s) == 1;
      const idx_t base = local ? socket * slab : 0;
      st->loads.push_back({owner, rows_iv});
      for (idx_t r = row; r < row + nrows;) {
        const idx_t g0 = socket_row(s, socket, r);
        idx_t len = 1;
        while (r + len < row + nrows &&
               socket_row(s, socket, r + len) == g0 + len) {
          ++len;
        }
        const StridedInterval iv{base + g0 * g.mu, len * g.mu,
                                 g.rows() * g.mu, g.cp()};
        st->stores.push_back({owner, iv});
        for (idx_t p = 0; !local && p < iv.count; ++p) {
          if ((iv.begin + p * iv.stride) / slab != socket) {
            st->off_slab_elems += iv.width;
          }
        }
        r += len;
      }
      break;
    }
    case StageKind::Columns:
      // In place: column group q is a W-wide run in each of the n1 rows.
      for (idx_t q = row; q < row + nrows; ++q) {
        const StridedInterval iv{q * s.group, s.group, plan.n2, plan.n1};
        st->loads.push_back({owner, iv});
        st->stores.push_back({owner, iv});
      }
      break;
    case StageKind::Flat:
      st->loads.push_back({owner, rows_iv});
      st->stores.push_back({owner, rows_iv});
      break;
  }
}

StageModel stage_model(const StagePlan& plan, const PlannedStage& s,
                       int parts, bool pipelined) {
  StageModel st;
  st.name = s.name;
  st.in_elems = plan.total;
  st.out_elems = plan.total;
  st.iterations = s.iterations;
  st.parts = parts * plan.sockets;
  st.in_place = s.kind == StageKind::Columns;
  st.nt_store = s.nontemporal;
  st.fence_before_publish = true;  // pipeline fences every store step
  st.pipelined = pipelined;
  st.buf_elems = s.rows_per_block * s.row_elems;
  for (idx_t i = 0; i < s.iterations; ++i) {
    for (int t = 0; t < st.parts; ++t) {  // every group's ranks, by socket
      const int sock = t / parts, d = t % parts;
      auto [r0, r1] = ThreadTeam::chunk(s.rows_per_block, parts, d);
      if (r1 <= r0) continue;
      add_row_windows(plan, s, sock, i * s.rows_per_block + r0, r1 - r0,
                      static_cast<int>(i) * st.parts + t, &st);
      if (sock != 0 || (pipelined && i > 0)) continue;
      // Buffer windows; each socket group's own buffer has the same ones.
      // Split: per-rank windows of the shared half, which depend only on
      // the rank, so one block's worth describes all. Private: a claim
      // (parts = 1) is one window on the tile of the thread that runs it,
      // placed at claim i's offset so distinct claims never share one. A
      // fused claim reads the same source window and writes the same
      // rotated window; its compute fills the tile window the load would
      // have (or uses it as Stockham work space when it also streams the
      // store), so the claim keeps these windows.
      const idx_t base = pipelined ? 0 : i * st.buf_elems;
      const StridedInterval buf = StridedInterval::contiguous(
          base + r0 * s.row_elems, (r1 - r0) * s.row_elems);
      const int owner = pipelined ? d : static_cast<int>(i);
      st.buf_loads.push_back({owner, buf});
      st.buf_stores.push_back({owner, buf});
    }
  }
  return st;
}

void build_double_buffer(const StagePlan& plan, PlanModel* out) {
  // The Table II schedule partitions each block over the data group; the
  // Private schedule runs each claim whole on one thread (parts = 1).
  const bool pipelined = plan.schedule() == Schedule::Split;
  const int parts = pipelined ? plan.data_threads : 1;
  out->engine = engine_label(EngineKind::DoubleBuffer);
  out->threads = plan.threads;
  out->compute_threads = plan.compute_threads;
  out->data_threads = plan.data_threads;
  for (const PlannedStage& s : plan.stages) {
    out->stages.push_back(stage_model(plan, s, parts, pipelined));
  }
}

/// In-place pass whose per-rank window serves as both read and write set.
StageModel inplace_pass(const std::string& name, idx_t total, int parts,
                        std::vector<OwnedWindow> windows) {
  StageModel st;
  st.name = name;
  st.in_elems = total;
  st.out_elems = total;
  st.parts = parts;
  st.in_place = true;
  st.fence_before_publish = true;  // temporal stores; vacuous
  st.loads = windows;
  st.stores = std::move(windows);
  return st;
}

bool build_pencil(const std::vector<idx_t>& dims, const FftOptions& opts,
                  PlanModel* out, std::string* why) {
  for (idx_t d : dims) {
    if (!is_pow2(d)) {
      *why = "pencil engine requires power-of-two sizes";
      return false;
    }
  }
  const int p = resolved_threads(opts);
  out->engine = engine_label(EngineKind::Pencil);
  out->threads = p;
  out->compute_threads = p;
  out->data_threads = 0;
  const idx_t total = out->total;

  if (dims.size() == 2) {
    const idx_t n = dims[0], m = dims[1];
    std::vector<OwnedWindow> x, y;
    for (int t = 0; t < p; ++t) {
      auto [b, e] = ThreadTeam::chunk(n, p, t);
      if (e > b) x.push_back({t, StridedInterval::contiguous(b * m,
                                                             (e - b) * m)});
      auto [cb, ce] = ThreadTeam::chunk(m, p, t);
      if (ce > cb) y.push_back({t, {cb, ce - cb, m, n}});
    }
    out->stages.push_back(inplace_pass("x-pass", total, p, std::move(x)));
    out->stages.push_back(inplace_pass("y-pass", total, p, std::move(y)));
  } else {
    const idx_t k = dims[0], n = dims[1], m = dims[2];
    std::vector<OwnedWindow> x, y, z;
    for (int t = 0; t < p; ++t) {
      auto [b, e] = ThreadTeam::chunk(k * n, p, t);
      if (e > b) x.push_back({t, StridedInterval::contiguous(b * m,
                                                             (e - b) * m)});
      // y pencils are indexed by (z, x) pairs; a rank's chunk can span
      // several z slabs, each contributing one strided window of its
      // x sub-range.
      auto [ib, ie] = ThreadTeam::chunk(k * m, p, t);
      for (idx_t i = ib; i < ie;) {
        const idx_t zz = i / m;
        const idx_t seg_end = std::min(ie, (zz + 1) * m);
        const idx_t x0 = i % m;
        y.push_back({t, {zz * n * m + x0, seg_end - i, m, n}});
        i = seg_end;
      }
      auto [cb, ce] = ThreadTeam::chunk(n * m, p, t);
      if (ce > cb) z.push_back({t, {cb, ce - cb, n * m, k}});
    }
    out->stages.push_back(inplace_pass("x-pass", total, p, std::move(x)));
    out->stages.push_back(inplace_pass("y-pass", total, p, std::move(y)));
    out->stages.push_back(inplace_pass("z-pass", total, p, std::move(z)));
  }
  return true;
}

bool build_slab_pencil(const std::vector<idx_t>& dims, const FftOptions& opts,
                       PlanModel* out, std::string* why) {
  if (dims.size() != 3) {
    *why = "slab-pencil engine is 3D only";
    return false;
  }
  const idx_t k = dims[0], n = dims[1], m = dims[2];
  const idx_t slab = n * m;
  const idx_t mu = packet_size_for(m);
  const int p = resolved_threads(opts);
  out->engine = engine_label(EngineKind::SlabPencil);
  out->threads = p;
  out->compute_threads = p;
  out->data_threads = 0;

  // Phase 1: a 2D FFT per z slab; a rank owns whole slabs, so its output
  // window is the contiguous slab range (the per-thread scratch in
  // between is private and never shared).
  StageModel s1;
  s1.name = "slabs-2d";
  s1.in_elems = s1.out_elems = out->total;
  s1.parts = p;
  s1.fence_before_publish = true;
  for (int t = 0; t < p; ++t) {
    auto [zb, ze] = ThreadTeam::chunk(k, p, t);
    if (ze <= zb) continue;
    s1.loads.push_back({t, StridedInterval::contiguous(zb * slab,
                                                       (ze - zb) * slab)});
    s1.stores.push_back({t, StridedInterval::contiguous(zb * slab,
                                                        (ze - zb) * slab)});
  }
  out->stages.push_back(std::move(s1));

  // Phase 2: z pencils in mu-lane groups, in place on the output.
  std::vector<OwnedWindow> zw;
  for (int t = 0; t < p; ++t) {
    auto [b, e] = ThreadTeam::chunk(slab / mu, p, t);
    if (e > b) zw.push_back({t, {b * mu, (e - b) * mu, slab, k}});
  }
  out->stages.push_back(
      inplace_pass("z-pencils", out->total, p, std::move(zw)));
  return true;
}

}  // namespace

std::string PlanModel::label() const {
  std::ostringstream os;
  os << engine << " ";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    os << (i ? "x" : "") << dims[i];
  }
  os << " p=" << threads << " pc=" << compute_threads
     << " pd=" << data_threads;
  if (sockets > 1) os << " sk=" << sockets;
  return os.str();
}

std::string StaticIssue::str() const {
  std::string s = std::string("[") + issue_kind_name(kind) + "] ";
  if (!stage.empty()) s += stage + ": ";
  return s + detail;
}

std::string StaticReport::str() const {
  std::ostringstream os;
  if (ok()) {
    os << "static verify: clean (" << plan << ", " << checks << " checks)";
    return os.str();
  }
  os << "static verify: " << issues.size() << " issue(s) (" << plan << ")";
  for (const auto& i : issues) os << "\n  " << i.str();
  return os.str();
}

PlanModel build_plan_model(const StagePlan& plan) {
  PlanModel out;
  out.dims = plan.dims;
  out.total = plan.total;
  out.sockets = plan.sockets;
  build_double_buffer(plan, &out);
  return out;
}

bool build_plan_model(const std::vector<idx_t>& dims, const FftOptions& opts,
                      PlanModel* out, std::string* why) {
  std::string unused;
  if (why == nullptr) why = &unused;
  *out = PlanModel{};
  out->dims = dims;
  out->total = 1;
  for (idx_t d : dims) out->total *= d;
  for (idx_t d : dims) {
    if (d < 1) {
      *why = "dimensions must be positive";
      return false;
    }
  }
  if (dims.empty() || dims.size() > 3 ||
      (dims.size() == 1 && opts.engine == EngineKind::Pencil)) {
    *why = "no symbolic model for this engine and rank";
    return false;
  }
  switch (opts.engine) {
    case EngineKind::DoubleBuffer:
    case EngineKind::StageParallel: {
      StagePlan plan;
      try {
        plan = make_stage_plan(dims, opts);
      } catch (const Error& e) {
        *why = e.what();
        return false;
      }
      // Stage-parallel is the same Private claim plan with temporal
      // stores (make_stage_plan); only the label differs.
      *out = build_plan_model(plan);
      out->engine = engine_label(opts.engine);
      return true;
    }
    case EngineKind::Pencil:
      return build_pencil(dims, opts, out, why);
    case EngineKind::SlabPencil:
      return build_slab_pencil(dims, opts, out, why);
    default:
      *why = "no symbolic model for this engine kind";
      return false;
  }
}

StaticReport verify_plan(const PlanModel& model) {
  StaticReport rep;
  rep.plan = model.label();

  for (std::size_t s = 0; s < model.stages.size(); ++s) {
    const StageModel& st = model.stages[s];

    // (1) Store windows: pairwise disjoint, in bounds, exact cover.
    ++rep.checks;
    const PartitionReport stores =
        check_partition(st.stores, st.out_elems, /*require_cover=*/true);
    for (const IntervalIssue& i : stores.issues) {
      StaticIssue::Kind kind = StaticIssue::Kind::PartitionOverlap;
      if (i.kind == IntervalIssue::Kind::Gap) {
        kind = StaticIssue::Kind::PartitionGap;
      } else if (i.kind == IntervalIssue::Kind::OutOfBounds) {
        kind = StaticIssue::Kind::OutOfBounds;
      }
      std::ostringstream os;
      os << i.str();
      if (i.kind == IntervalIssue::Kind::Overlap) {
        os << " (" << owner_str(i.owner_a, st.parts) << " vs "
           << owner_str(i.owner_b, st.parts) << ")";
      }
      add_issue(rep, kind, st.name, os.str());
    }

    // Read coverage: every input element is consumed (overlapping reads
    // are legal — in-place passes read what they write — so only gaps
    // and bounds escapes count).
    ++rep.checks;
    const PartitionReport loads =
        check_partition(st.loads, st.in_elems, /*require_cover=*/true);
    for (const IntervalIssue& i : loads.issues) {
      if (i.kind == IntervalIssue::Kind::Overlap) continue;
      add_issue(rep,
                i.kind == IntervalIssue::Kind::Gap
                    ? StaticIssue::Kind::PartitionGap
                    : StaticIssue::Kind::OutOfBounds,
                st.name, "read set: " + i.str());
    }

    // (4) Conservation: the write element count balances the stage
    // output, and the stage consumes exactly what the previous one
    // produced.
    ++rep.checks;
    idx_t written = 0;
    for (const OwnedWindow& w : st.stores) written += w.iv.elems();
    if (written != st.out_elems) {
      std::ostringstream os;
      os << "windows write " << written << " elements but the stage output "
         << "holds " << st.out_elems;
      add_issue(rep, StaticIssue::Kind::NotConservative, st.name, os.str());
    }
    if (st.in_elems != st.out_elems) {
      std::ostringstream os;
      os << "stage reads " << st.in_elems << " elements but writes "
         << st.out_elems;
      add_issue(rep, StaticIssue::Kind::NotConservative, st.name, os.str());
    }
    if (s > 0 && model.stages[s - 1].out_elems != st.in_elems) {
      add_issue(rep, StaticIssue::Kind::NotConservative, st.name,
                "stage input size does not match the previous stage output");
    }

    // (2) Fence pairing: non-temporal stores must reach a stream fence
    // on the storing thread before the barrier that publishes them —
    // otherwise a reader on another core can observe stale data after
    // the barrier.
    ++rep.checks;
    if (st.nt_store && !st.fence_before_publish) {
      add_issue(rep, StaticIssue::Kind::MissingFence, st.name,
                "non-temporal stores are published by a barrier with no "
                "stream_fence() before it");
    }

    // (3) Buffer epoch aliasing: in the Table II schedule Store(i-2) and
    // Load(i) run concurrently on DIFFERENT data threads with no
    // ordering until the step barrier, and under Private the claims are
    // not ordered at all within a stage, so a Load window may only alias
    // the SAME owner's Store window (program order serialises those two).
    ++rep.checks;
    for (const OwnedWindow& ld : st.buf_loads) {
      for (const OwnedWindow& sw : st.buf_stores) {
        if (ld.owner == sw.owner) continue;
        if (windows_overlap(ld.iv, sw.iv)) {
          std::ostringstream os;
          const char* who = st.pipelined ? "rank " : "claim ";
          os << "Load window of " << who << ld.owner << " " << ld.iv.str()
             << " aliases the pending Store window of " << who << sw.owner
             << " " << sw.iv.str() << " in the buffer";
          add_issue(rep, StaticIssue::Kind::EpochAlias, st.name, os.str());
        }
      }
    }

    // (3b) Slice ownership: each owner stores exactly the buffer window
    // it loaded. Under Private the owner is a claim, whose one window the
    // thread that claimed it loads, transforms and stores on its tile, so
    // no thread reads another's handoff.
    ++rep.checks;
    for (const OwnedWindow& ld : st.buf_loads) {
      bool owned = false;
      for (const OwnedWindow& sw : st.buf_stores) {
        owned = owned || (sw.owner == ld.owner && same_window(sw.iv, ld.iv));
      }
      if (!owned) {
        std::ostringstream os;
        os << (st.pipelined ? "rank " : "claim ") << ld.owner
           << " loads buffer window " << ld.iv.str()
           << " but does not store it back";
        add_issue(rep, StaticIssue::Kind::SliceOwnership, st.name, os.str());
      }
    }
  }
  return rep;
}

Trace make_table2_trace(idx_t iterations, const RolePlan& roles,
                        Fusion fused) {
  using Kind = DoubleBufferPipeline::TraceEvent::Kind;
  Trace t;
  if (roles.data == 0) {
    // Private schedule: the claims are dealt round-robin (any assignment
    // that runs each claim once is valid) and no barrier orders the
    // threads within a stage, so the trace is thread-major, each thread's
    // claims in program order on its own tile.
    for (int tid = 0; tid < roles.total; ++tid) {
      for (idx_t i = tid; i < iterations; i += roles.total) {
        for (Kind k : claim_tasks(fused)) t.push_back({i, k, i, tid, tid});
      }
    }
    return t;
  }
  for (idx_t step = 0; step < iterations + 2; ++step) {
    const int h = static_cast<int>(step % 2);
    for (int tid = 0; tid < roles.total; ++tid) {
      if (roles.is_compute(tid)) {
        if (step >= 1 && step <= iterations) {
          t.push_back({step, Kind::Compute, step - 1,
                       static_cast<int>((step + 1) % 2), tid});
        }
      } else {
        // Per-thread program order: Store(step-2) retires the half
        // before Load(step) refills it.
        if (step >= 2) t.push_back({step, Kind::Store, step - 2, h, tid});
        if (step < iterations) t.push_back({step, Kind::Load, step, h, tid});
      }
    }
  }
  return t;
}

namespace {

/// The tasks of a Private claim of a stage with fusion `fused`, in
/// program order.
std::vector<DoubleBufferPipeline::TraceEvent::Kind> claim_tasks(Fusion fused) {
  using Kind = DoubleBufferPipeline::TraceEvent::Kind;
  switch (fused) {
    case Fusion::None: return {Kind::Load, Kind::Compute, Kind::Store};
    case Fusion::Load: return {Kind::Compute, Kind::Store};
    case Fusion::LoadStore: return {Kind::Compute};
  }
  return {};
}

/// verify_schedule_symbolic under Private. The recurrence: each claim i
/// is one run of its stage's tasks (claim_tasks) at step i, back to back
/// by one thread on its own tile (half = tid), and every claim in
/// [0, iters) is run exactly once, by any thread.
HazardReport verify_claims_symbolic(const Trace& trace, idx_t iterations,
                                    const RolePlan& roles, Fusion fused) {
  HazardReport rep;
  rep.iterations = iterations;
  rep.events = trace.size();
  auto violation = [&](HazardViolation::Kind k,
                       const DoubleBufferPipeline::TraceEvent& ev,
                       std::string detail) {
    rep.violations.push_back(
        {k, ev.step, ev.iter, ev.half, ev.tid, std::move(detail)});
  };
  const auto tasks = claim_tasks(fused);
  const int ntasks = static_cast<int>(tasks.size());
  // The thread that opened each claim (ran its first task), and per
  // thread the claim in flight with the index of the next task it owes.
  std::vector<int> opener(static_cast<std::size_t>(iterations), -1);
  std::vector<idx_t> open(static_cast<std::size_t>(roles.total), -1);
  std::vector<int> phase(static_cast<std::size_t>(roles.total), 0);

  for (const auto& ev : trace) {
    if (ev.tid < 0 || ev.tid >= roles.total) {
      violation(HazardViolation::Kind::RoleMismatch, ev,
                "event from a thread outside the team");
      continue;
    }
    if (ev.iter < 0 || ev.iter >= iterations || ev.step != ev.iter) {
      violation(HazardViolation::Kind::WrongStep, ev,
                "claim i must be recorded at step i, i in [0, iterations)");
      continue;
    }
    if (ev.half != ev.tid) {
      violation(HazardViolation::Kind::WrongHalf, ev,
                "a claim runs on its thread's own tile");
      continue;
    }
    const int want = static_cast<int>(
        std::find(tasks.begin(), tasks.end(), ev.kind) - tasks.begin());
    if (want == ntasks) {
      violation(HazardViolation::Kind::DuplicateTask, ev,
                "task the stage fuses into its compute");
      continue;
    }
    const auto t = static_cast<std::size_t>(ev.tid);
    int& who = opener[static_cast<std::size_t>(ev.iter)];
    if (want == 0 && who >= 0) {
      violation(HazardViolation::Kind::DuplicateTask, ev,
                "claim run a second time");
    } else if (want == 0) {
      who = ev.tid;
    } else if (who != ev.tid) {
      violation(HazardViolation::Kind::SliceMismatch, ev,
                "claim continued by a thread that did not start it");
    }
    if (phase[t] != want || (want > 0 && open[t] != ev.iter)) {
      violation(HazardViolation::Kind::ProgramOrder, ev,
                "expected the claim's tasks in L(i) -> C(i) -> S(i) order, "
                "back to back on the tile");
    }
    open[t] = ev.iter;
    phase[t] = (want + 1) % ntasks;
  }
  for (idx_t i = 0; i < iterations; ++i) {
    if (opener[static_cast<std::size_t>(i)] < 0) {
      rep.violations.push_back({HazardViolation::Kind::MissingTask, -1, i, -1,
                                -1, "claim never executed"});
    }
  }
  for (int tid = 0; tid < roles.total; ++tid) {
    if (phase[static_cast<std::size_t>(tid)] != 0) {
      rep.violations.push_back(
          {HazardViolation::Kind::MissingTask, -1,
           open[static_cast<std::size_t>(tid)], tid, tid,
           "claim left unfinished on its tile"});
    }
  }
  return rep;
}

}  // namespace

HazardReport verify_schedule_symbolic(const Trace& trace, idx_t iterations,
                                      const RolePlan& roles, Fusion fused) {
  if (roles.data == 0) {
    return verify_claims_symbolic(trace, iterations, roles, fused);
  }
  using Kind = DoubleBufferPipeline::TraceEvent::Kind;
  HazardReport rep;
  rep.iterations = iterations;
  rep.events = trace.size();

  auto violation = [&](HazardViolation::Kind k,
                       const DoubleBufferPipeline::TraceEvent& ev,
                       std::string detail) {
    rep.violations.push_back(
        {k, ev.step, ev.iter, ev.half, ev.tid, std::move(detail)});
  };

  // Expected slot table: for every (kind, tid, iter) the unique
  // (step, half) the recurrences allow, plus a seen flag.
  auto slot_index = [&](Kind k, int tid, idx_t iter) -> std::size_t {
    const std::size_t kind_idx = k == Kind::Load ? 0 : k == Kind::Compute
                                                           ? 1
                                                           : 2;
    return (kind_idx * static_cast<std::size_t>(roles.total) +
            static_cast<std::size_t>(tid)) *
               static_cast<std::size_t>(iterations) +
           static_cast<std::size_t>(iter);
  };
  std::vector<char> seen(3 * static_cast<std::size_t>(roles.total) *
                             static_cast<std::size_t>(iterations),
                         0);

  // Per-(tid, step) flag for the S4 ordering rule in the Table II
  // schedule: Load(step) recorded before Store(step-2) on the same
  // thread means the half was refilled before it was retired.
  std::vector<char> load_seen_at_step(
      static_cast<std::size_t>(roles.total) *
          static_cast<std::size_t>(iterations + 2),
      0);

  for (const auto& ev : trace) {
    if (ev.tid < 0 || ev.tid >= roles.total) {
      violation(HazardViolation::Kind::RoleMismatch, ev,
                "event from a thread outside the team");
      continue;
    }
    if (ev.iter < 0 || ev.iter >= iterations) {
      violation(HazardViolation::Kind::WrongStep, ev,
                "iteration outside [0, iterations)");
      continue;
    }
    const bool is_compute_ev = ev.kind == Kind::Compute;
    if (roles.is_compute(ev.tid) != is_compute_ev) {
      violation(HazardViolation::Kind::RoleMismatch, ev,
                is_compute_ev ? "compute task on a data thread"
                              : "data task on a compute thread");
      continue;
    }

    // The unique slot this event may occupy.
    const idx_t want_step = ev.kind == Kind::Load    ? ev.iter
                            : ev.kind == Kind::Store ? ev.iter + 2
                                                     : ev.iter + 1;
    const int want_half = static_cast<int>(ev.iter % 2);

    const std::size_t idx = slot_index(ev.kind, ev.tid, ev.iter);
    if (seen[idx]) {
      violation(HazardViolation::Kind::DuplicateTask, ev,
                "slot executed more than once");
      continue;
    }
    seen[idx] = 1;

    if (ev.step != want_step) {
      violation(HazardViolation::Kind::WrongStep, ev,
                "expected step " + std::to_string(want_step));
      continue;
    }
    if (ev.half != want_half) {
      violation(HazardViolation::Kind::WrongHalf, ev,
                "expected half " + std::to_string(want_half));
      continue;
    }

    if (!roles.is_compute(ev.tid)) {
      const std::size_t ts = static_cast<std::size_t>(ev.tid) *
                                 static_cast<std::size_t>(iterations + 2) +
                             static_cast<std::size_t>(ev.step);
      if (ev.kind == Kind::Load) {
        load_seen_at_step[ts] = 1;
      } else if (load_seen_at_step[ts]) {
        violation(HazardViolation::Kind::StoreLoadOrder, ev,
                  "Store(i-2) recorded after Load(i) in the same step");
      }
    }
  }

  // Every slot the schedule demands must have been filled.
  for (int tid = 0; tid < roles.total; ++tid) {
    const bool compute_thread = roles.is_compute(tid);
    for (idx_t i = 0; i < iterations; ++i) {
      auto require = [&](Kind k, const char* what) {
        if (!seen[slot_index(k, tid, i)]) {
          rep.violations.push_back({HazardViolation::Kind::MissingTask, -1, i,
                                    -1, tid,
                                    std::string(what) + " never executed"});
        }
      };
      if (compute_thread) {
        require(Kind::Compute, "Compute");
      } else {
        require(Kind::Load, "Load");
        require(Kind::Store, "Store");
      }
    }
  }
  return rep;
}

}  // namespace bwfft::analysis
