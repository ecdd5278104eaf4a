// bwfft_lint — static verification sweep over the planner's whole grid.
//
// For each representative transform shape this tool:
//   1. symbolically verifies every candidate the tuner would consider
//      (tune::enumerate_candidates x all engines): per-thread store
//      windows pairwise disjoint and jointly covering, NT-store/fence
//      pairing, double-buffer epoch aliasing, stage-to-stage element
//      conservation — all by interval algebra, nothing executes;
//   2. verifies the schedule (Table II for Split, per-thread program
//      order for Private) symbolically for every distinct role split the
//      grid produces, and cross-checks that the runtime
//      hazard checker (analysis::audit_schedule) agrees with the
//      symbolic checker on the same trace;
//   3. runs the SPL static verifier over spl::plan_term of every distinct
//      StagePlan the grid builds (one per packet mu / four-step n1), so
//      the formula proven is the one the engines execute;
//   4. on every 3D shape whose k and n 2 divides, at an even thread
//      count, proves the default two-socket plan
//      (make_stage_plan(dims, opts, 2)) the same way: its windows by
//      leg 1 and its plan_term by leg 3.
//
// `--inject MODE` seeds one deliberate defect into an otherwise valid
// model or trace and exits nonzero ONLY IF the static pass catches it
// (and, for schedule defects, the runtime checker agrees) — the CI wiring
// marks those invocations as must-fail, so a verifier that goes blind
// turns the build red.
//
// Exit codes: 0 = everything proven clean, 1 = violations (or an inject
// that was caught — the expected outcome under --inject), 2 = usage.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/hazard_checker.h"
#include "analysis/static_verify.h"
#include "benchutil/args.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "common/types.h"
#include "fft/double_buffer.h"
#include "fft/options.h"
#include "parallel/roles.h"
#include "parallel/team.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"
#include "spl/algorithms.h"
#include "spl/verify.h"
#include "tune/candidates.h"

using namespace bwfft;

namespace {

struct LintOptions {
  std::vector<std::vector<idx_t>> dims_list;
  int threads = 8;  // fixed default: the sweep must not depend on the host
  std::string inject;
  bool verbose = false;
};

struct LintTally {
  int configs_verified = 0;
  int configs_skipped = 0;
  int schedules_verified = 0;
  int spl_verified = 0;
  int violations = 0;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: bwfft_lint [--dims N[xM[xK]]]... [--threads N] [-v|--verbose]\n"
      "                  [--inject MODE]\n"
      "  Statically verifies every tuner candidate at the given 1D, 2D or\n"
      "  3D shapes (default: 64x64x64 32x64x128 48x48x48 256x256 65536).\n"
      "  MODE: store-overlap | store-gap | missing-fence | epoch-alias |\n"
      "        schedule-half | schedule-dup | private-steal | double-claim |\n"
      "        fused-misroute\n"
      "        (seeded defect; exit 1 = caught, the expected outcome)\n");
  return 2;
}

std::string dims_str(const std::vector<idx_t>& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    s += (i ? "x" : "") + std::to_string(dims[i]);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Leg 3: the SPL term of each distinct plan the grid sweep builds.
// ---------------------------------------------------------------------------

void lint_plan_term(const StagePlan& plan, LintTally* tally) {
  std::string what = dims_str(plan.dims);
  if (plan.dims.size() > 1) {
    what += " mu=" + std::to_string(plan.mu);
  } else {
    what += " n1=" + std::to_string(plan.n1) + " n2=" + std::to_string(plan.n2);
  }
  if (plan.sockets > 1) what += " sk=" + std::to_string(plan.sockets);
  const spl::VerifyReport rep = spl::verify(*spl::plan_term(plan));
  if (!rep.ok()) {
    std::printf("FAIL  spl plan_term %s\n%s\n", what.c_str(),
                rep.str().c_str());
    tally->violations += static_cast<int>(rep.issues.size());
    return;
  }
  ++tally->spl_verified;
  std::printf("  ok    spl plan_term %s (%zu nodes)\n", what.c_str(),
              rep.nodes);
}

// ---------------------------------------------------------------------------
// Leg 1+2: the tuner grid, engine models, and schedule cross-check.
// ---------------------------------------------------------------------------

void lint_model(const analysis::PlanModel& model, bool print_ok,
                LintTally* tally) {
  const analysis::StaticReport rep = analysis::verify_plan(model);
  if (!rep.ok()) {
    std::printf("FAIL  %s\n%s\n", model.label().c_str(), rep.str().c_str());
    tally->violations += static_cast<int>(rep.issues.size());
    return;
  }
  ++tally->configs_verified;
  if (print_ok) {
    std::printf("  ok    %s (%zu proofs)\n", model.label().c_str(),
                rep.checks);
  }
}

void lint_grid(const std::vector<idx_t>& dims, const LintOptions& opt,
               LintTally* tally) {
  FftOptions req;
  req.engine = EngineKind::Auto;  // every engine the planner could pick
  req.threads = opt.threads;
  const auto grid = tune::enumerate_candidates(dims, req);

  std::vector<int> splits_seen;
  std::vector<std::pair<idx_t, idx_t>> terms_seen;  // (mu, n1)
  for (const auto& c : grid) {
    const FftOptions opts = tune::apply_candidate(c, req);
    analysis::PlanModel model;
    std::string why;
    if (!analysis::build_plan_model(dims, opts, &model, &why)) {
      ++tally->configs_skipped;
      if (opt.verbose) {
        std::printf("  skip  %s %s: %s\n", dims_str(dims).c_str(),
                    tune::candidate_label(c).c_str(), why.c_str());
      }
      continue;
    }
    lint_model(model, opt.verbose, tally);

    // SPL leg: the term of every distinct plan (a model was built, so
    // this engine runs the StagePlan).
    const StagePlan plan = make_stage_plan(dims, opts);
    const std::pair<idx_t, idx_t> key{plan.mu, plan.n1};
    if (std::find(terms_seen.begin(), terms_seen.end(), key) ==
        terms_seen.end()) {
      terms_seen.push_back(key);
      lint_plan_term(plan, tally);
    }

    // Schedule leg: one symbolic + runtime agreement pass per distinct
    // role split the grid produces (the schedule depends only on the
    // split, not on block/packet knobs).
    if (c.engine != EngineKind::DoubleBuffer) continue;
    const int pc = model.compute_threads;
    bool seen = false;
    for (int s : splits_seen) seen = seen || s == pc;
    if (seen) continue;
    splits_seen.push_back(pc);
    const RolePlan roles = make_role_plan(model.threads, pc, req.topo);
    // Private claims run fused too: every fusion a stage can plan.
    std::vector<Fusion> fusions = {Fusion::None};
    if (roles.data == 0) fusions = {Fusion::None, Fusion::Load,
                                    Fusion::LoadStore};
    for (Fusion fused : fusions) {
      for (idx_t iters : {idx_t{1}, idx_t{2}, idx_t{5}, idx_t{8}}) {
        const analysis::Trace trace =
            analysis::make_table2_trace(iters, roles, fused);
        const analysis::HazardReport sym =
            analysis::verify_schedule_symbolic(trace, iters, roles, fused);
        const analysis::HazardReport dyn =
            analysis::audit_schedule(trace, iters, roles, fused);
        if (!sym.clean() || !dyn.clean()) {
          std::printf("FAIL  schedule p=%d pc=%d iters=%lld fused %s\n",
                      model.threads, pc, static_cast<long long>(iters),
                      fusion_name(fused));
          if (!sym.clean()) std::printf("  symbolic: %s", sym.str().c_str());
          if (!dyn.clean()) std::printf("  runtime:  %s", dyn.str().c_str());
          ++tally->violations;
        } else {
          ++tally->schedules_verified;
        }
      }
    }
  }

  // Leg 4: the default plan over two sockets, where 2 divides k, n and
  // the team.
  if (dims.size() == 3 && dims[0] % 2 == 0 && dims[1] % 2 == 0 &&
      resolved_threads(req) % 2 == 0) {
    const StagePlan plan = make_stage_plan(dims, req, 2);
    lint_model(analysis::build_plan_model(plan), true, tally);
    lint_plan_term(plan, tally);
  }
}

// ---------------------------------------------------------------------------
// --inject: seed one defect; exit 1 only when the verifiers catch it.
// ---------------------------------------------------------------------------

/// A valid double-buffer model to corrupt: the first shape at
/// `compute_threads` (-1: the plan's default split). Dies if the model
/// cannot be built — the inject harness needs a working baseline.
bool inject_base_model(const LintOptions& opt, analysis::PlanModel* model,
                       int compute_threads) {
  FftOptions req;
  req.threads = opt.threads;
  req.engine = EngineKind::DoubleBuffer;
  req.compute_threads = compute_threads;
  std::string why;
  if (!analysis::build_plan_model(opt.dims_list.front(), req, model, &why)) {
    std::fprintf(stderr, "inject: cannot build baseline model: %s\n",
                 why.c_str());
    return false;
  }
  return true;
}

/// First stage with at least two store windows (every representative
/// shape has one; parts >= 2 needs threads >= 4 for the default split).
analysis::StageModel* corruptible_stage(analysis::PlanModel* model) {
  for (auto& st : model->stages) {
    if (st.stores.size() >= 2) return &st;
  }
  return nullptr;
}

/// Both the static model and the runtime partition probe must catch a
/// Private-schedule claim that loads a window it does not own.
int inject_private_steal(const LintOptions& opt) {
  analysis::PlanModel model;
  if (!inject_base_model(opt, &model, -1)) return 2;
  analysis::StageModel* st = nullptr;
  for (auto& s : model.stages) {
    if (st == nullptr && s.buf_loads.size() >= 2) st = &s;
  }
  if (model.data_threads != 0 || st == nullptr) {
    std::fprintf(stderr, "inject: need a Private plan with >= 2 claims\n");
    return 2;
  }
  // Static: claim 1's buffer load window is claim 0's.
  st->buf_loads[1].iv = st->buf_loads[0].iv;
  const analysis::StaticReport rep = analysis::verify_plan(model);

  // Runtime: the same defect in a stage callback, found by the sentinel
  // probe's slice-ownership audit (no execution, no threads).
  const int parts = model.threads;
  const idx_t block = 64 * parts;
  const auto slice = [&](int rank) {
    return ThreadTeam::chunk(block, parts, rank == 1 ? 0 : rank);
  };
  const auto load = [&](idx_t, cplx* buf, int rank, int) {
    auto [b, e] = slice(rank);
    for (idx_t j = b; j < e; ++j) buf[j] = cplx(1.0, 0.0);
  };
  const auto compute = [&](idx_t, cplx* buf, int rank, int) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank);
    for (idx_t j = b; j < e; ++j) buf[j] *= 2.0;
  };
  analysis::HazardReport dyn;
  analysis::audit_slices(analysis::probe_partition(load, 0, block, parts),
                         analysis::probe_partition(compute, 0, block, parts),
                         dyn);
  std::printf("inject private-steal on %s: static %s, runtime %s\n",
              model.label().c_str(), rep.ok() ? "MISSED" : "caught",
              dyn.clean() ? "MISSED" : "caught");
  if (!rep.ok()) std::printf("%s\n", rep.str().c_str());
  if (!dyn.clean()) std::printf("%s\n", dyn.str().c_str());
  return (!rep.ok() && !dyn.clean()) ? 1 : 0;
}

/// Both halves of a Private claim defect must be caught: one claim run a
/// second time on another thread (by the symbolic and the runtime
/// schedule checkers) and two claims sharing one tile window (by the
/// static pass).
int inject_double_claim(const LintOptions& opt) {
  analysis::PlanModel model;
  if (!inject_base_model(opt, &model, -1)) return 2;
  analysis::StageModel* st = nullptr;
  for (auto& s : model.stages) {
    if (st == nullptr && s.buf_loads.size() >= 2) st = &s;
  }
  if (model.data_threads != 0 || st == nullptr) {
    std::fprintf(stderr, "inject: need a Private plan with >= 2 claims\n");
    return 2;
  }
  // Static: claim 1 loads and stores claim 0's window.
  st->buf_loads[1].iv = st->buf_loads[0].iv;
  st->buf_stores[1].iv = st->buf_stores[0].iv;
  const analysis::StaticReport rep = analysis::verify_plan(model);

  // Schedule: claim 1 runs again, whole, on the next thread's tile.
  const RolePlan roles =
      make_role_plan(model.threads, model.threads, host_topology());
  const idx_t iters = 4;
  analysis::Trace trace = analysis::make_table2_trace(iters, roles);
  const int again = (1 + 1) % roles.total;
  using Kind = DoubleBufferPipeline::TraceEvent::Kind;
  for (Kind kind : {Kind::Load, Kind::Compute, Kind::Store}) {
    trace.push_back({1, kind, 1, again, again});
  }
  const analysis::HazardReport sym =
      analysis::verify_schedule_symbolic(trace, iters, roles);
  const analysis::HazardReport dyn =
      analysis::audit_schedule(trace, iters, roles);
  std::printf("inject double-claim on %s: static %s, symbolic %s, runtime %s\n",
              model.label().c_str(), rep.ok() ? "MISSED" : "caught",
              sym.clean() ? "MISSED" : "caught",
              dyn.clean() ? "MISSED" : "caught");
  if (!rep.ok()) std::printf("%s\n", rep.str().c_str());
  if (!sym.clean()) std::printf("%s\n", sym.str().c_str());
  return (!rep.ok() && !sym.clean() && !dyn.clean()) ? 1 : 0;
}

/// A fused claim that streams its packets one grid row too far must be
/// caught twice: in the static model (its rotated store windows shifted
/// by one row overlap the next claim's and leave its own first row
/// unwritten) and at run time, by probing the real fused compute of
/// stage k over a sentinel-poisoned output. True when both catch it.
bool fused_misroute_caught(const StagePlan& plan, std::size_t k) {
  analysis::PlanModel model = analysis::build_plan_model(plan);
  const PlannedStage& s = plan.stages[k];
  const idx_t mu = s.geom.mu;

  // Static: claim 1's rotated store windows start one row later.
  for (OwnedWindow& w : model.stages[k].stores) {
    if (w.owner == 1) w.iv.begin += mu;
  }
  const analysis::StaticReport rep = analysis::verify_plan(model);

  // Runtime: the engine's fused stage, with claim 1 streamed through a
  // destination one row off.
  const Fft1d fft(s.geom.fft_len, Direction::Forward);
  const cvec src = random_cvec(plan.total, 29);
  AlignedBuffer<cplx> out(static_cast<std::size_t>(plan.total + mu));
  const PipelineStage good =
      make_rotated_stage(s, fft, src.data(), out.data());
  const PipelineStage off =
      make_rotated_stage(s, fft, src.data(), out.data() + mu);
  analysis::HazardReport dyn;
  const auto misrouted = [&](idx_t i, cplx* tile, int rank, int parts) {
    (i == 1 ? off : good).compute(i, tile, rank, parts);
  };
  analysis::audit_partition(
      analysis::probe_outputs(misrouted, s.iterations, out.data(), plan.total,
                              s.rows_per_block * s.row_elems),
      /*require_cover=*/true, "fused store", dyn);
  std::printf("inject fused-misroute on %s stage %zu (%s): static %s, "
              "runtime %s\n",
              model.label().c_str(), k, s.name,
              rep.ok() ? "MISSED" : "caught", dyn.clean() ? "MISSED" : "caught");
  if (!rep.ok()) std::printf("%s\n", rep.str().c_str());
  if (!dyn.clean()) std::printf("%s\n", dyn.str().c_str());
  return !rep.ok() && !dyn.clean();
}

/// Seeds the misroute into the first load+store fused stage with two or
/// more claims of each streaming kind among the shapes: a 2D/3D Rotated
/// stage and a 1D Rows stage (the defaults have both).
int inject_fused_misroute(const LintOptions& opt) {
  FftOptions req;
  req.threads = opt.threads;
  req.engine = EngineKind::DoubleBuffer;
  int seeded = 0, caught = 0;
  for (StageKind kind : {StageKind::Rotated, StageKind::Rows}) {
    bool found = false;
    for (const auto& dims : opt.dims_list) {
      const StagePlan plan = make_stage_plan(dims, req);
      for (std::size_t k = 0; !found && k < plan.stages.size(); ++k) {
        const PlannedStage& s = plan.stages[k];
        if (s.kind != kind || s.fused != Fusion::LoadStore ||
            s.iterations < 2) {
          continue;
        }
        const Fft1d fft(s.geom.fft_len, Direction::Forward);
        AlignedBuffer<cplx> out(static_cast<std::size_t>(plan.total));
        if (!fft.streams_rotated(s.geom.lanes, s.rows_per_block,
                                 {out.data(), s.geom.rows(), 0, s.geom.mu})) {
          std::fprintf(stderr, "inject: this host's codelets do not stream\n");
          return 2;
        }
        found = true;
        ++seeded;
        caught += fused_misroute_caught(plan, k) ? 1 : 0;
      }
      if (found) break;
    }
  }
  if (seeded == 0) {
    std::fprintf(stderr, "inject: need a load+store fused stage with >= 2 "
                         "claims\n");
    return 2;
  }
  return caught == seeded ? 1 : 0;
}

int run_inject(const LintOptions& opt) {
  const std::string& mode = opt.inject;
  // The Table II defects are seeded into the paper's even Split.
  const int split = opt.threads / 2;
  if (mode == "private-steal") return inject_private_steal(opt);
  if (mode == "double-claim") return inject_double_claim(opt);
  if (mode == "fused-misroute") return inject_fused_misroute(opt);
  if (mode == "store-overlap" || mode == "store-gap" ||
      mode == "missing-fence" || mode == "epoch-alias") {
    analysis::PlanModel model;
    if (!inject_base_model(opt, &model, split)) return 2;
    analysis::StageModel* st = corruptible_stage(&model);
    if (st == nullptr) {
      std::fprintf(stderr, "inject: no stage with >= 2 store windows\n");
      return 2;
    }
    if (mode == "store-overlap") {
      // Rank 1 rewrites rank 0's window: overlap AND a gap where rank 1
      // should have written.
      st->stores[1].iv = st->stores[0].iv;
    } else if (mode == "store-gap") {
      st->stores.pop_back();
    } else if (mode == "missing-fence") {
      if (!st->nt_store) {
        std::fprintf(stderr, "inject: baseline stage is not NT\n");
        return 2;
      }
      st->fence_before_publish = false;
    } else {  // epoch-alias
      if (st->buf_loads.size() < 2) {
        std::fprintf(stderr, "inject: baseline stage is not pipelined with"
                             " >= 2 data ranks\n");
        return 2;
      }
      // Rank 1's load window collides with rank 0's pending store.
      st->buf_loads[1].iv = st->buf_stores[0].iv;
    }
    const analysis::StaticReport rep = analysis::verify_plan(model);
    std::printf("inject %s on %s:\n%s\n", mode.c_str(),
                model.label().c_str(), rep.str().c_str());
    if (rep.ok()) {
      std::printf("inject %s: NOT CAUGHT — the static pass is blind\n",
                  mode.c_str());
      return 0;  // must-fail CI wiring turns this into a red build
    }
    std::printf("inject %s: caught (%zu issues)\n", mode.c_str(),
                rep.issues.size());
    return 1;
  }

  if (mode == "schedule-half" || mode == "schedule-dup") {
    // The even split, which has data threads: the Table II schedule.
    analysis::PlanModel model;
    if (!inject_base_model(opt, &model, split)) return 2;
    const RolePlan roles = make_role_plan(
        model.threads, model.compute_threads, host_topology());
    if (roles.data == 0) {
      std::fprintf(stderr, "inject: need a split with data threads\n");
      return 2;
    }
    const idx_t iters = 4;
    analysis::Trace trace = analysis::make_table2_trace(iters, roles);
    if (mode == "schedule-half") {
      trace.front().half ^= 1;
    } else {
      trace.push_back(trace.front());
    }
    const analysis::HazardReport sym =
        analysis::verify_schedule_symbolic(trace, iters, roles);
    const analysis::HazardReport dyn =
        analysis::audit_schedule(trace, iters, roles);
    std::printf("inject %s: symbolic %s, runtime %s\n", mode.c_str(),
                sym.clean() ? "MISSED" : "caught",
                dyn.clean() ? "MISSED" : "caught");
    if (!sym.clean()) std::printf("%s\n", sym.str().c_str());
    // Both checkers must reject — a miss by either one (or a
    // disagreement) exits 0 and fails the must-fail CI assertion.
    return (!sym.clean() && !dyn.clean()) ? 1 : 0;
  }

  std::fprintf(stderr, "unknown inject mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LintOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string err;
    if (!std::strcmp(a, "--dims") && i + 1 < argc) {
      std::vector<idx_t> d;
      if (!cli::parse_dims(argv[++i], &d, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return usage();
      }
      opt.dims_list.push_back(std::move(d));
    } else if (!std::strcmp(a, "--threads") && i + 1 < argc) {
      long long threads = 0;
      if (!cli::parse_int(argv[++i], 1, &threads, &err) ||
          threads > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "bad --threads: %s\n",
                     err.empty() ? "out of range" : err.c_str());
        return usage();
      }
      opt.threads = static_cast<int>(threads);
    } else if (!std::strcmp(a, "--inject") && i + 1 < argc) {
      opt.inject = argv[++i];
    } else if (!std::strcmp(a, "-v") || !std::strcmp(a, "--verbose")) {
      opt.verbose = true;
    } else {
      return usage();
    }
  }
  if (opt.dims_list.empty()) {
    opt.dims_list = {{64, 64, 64}, {32, 64, 128}, {48, 48, 48}, {256, 256},
                     {65536}};
  }

  if (!opt.inject.empty()) return run_inject(opt);

  LintTally tally;
  for (const auto& dims : opt.dims_list) {
    std::printf("lint %s (threads=%d)\n", dims_str(dims).c_str(),
                opt.threads);
    lint_grid(dims, opt, &tally);
  }
  std::printf(
      "bwfft_lint: %d configurations proven, %d skipped, %d schedule "
      "traces cross-checked, %d SPL terms verified\n",
      tally.configs_verified, tally.configs_skipped,
      tally.schedules_verified, tally.spl_verified);
  if (tally.violations > 0) {
    std::printf("bwfft_lint: FAIL (%d violations)\n", tally.violations);
    return 1;
  }
  std::printf("bwfft_lint: CLEAN\n");
  return 0;
}
