// bwfft_verify — correctness-tooling CLI.
//
//   bwfft_verify spl --dims KxNxM|NxM|N [--mu MU] [--socket-split SK]
//       Plan the transform (make_stage_plan; --mu pins packet_elems, else
//       the plan's auto packet), run the SPL static verifier over
//       spl::plan_term stage by stage and whole, probe each stage's data
//       movement (K or L) for permutation-ness, and verify the paper's
//       other 2D/3D factorisations and the socket plan's term (SK
//       sockets; the default 2 is skipped where it does not divide) at
//       the same shape. Exit 0 iff everything is clean.
//
//   bwfft_verify pipeline [--threads P] [--compute PC] [--block ELEMS]
//                         [--iters N]
//       Run a synthetic copy stage through DoubleBufferPipeline under the
//       hazard checker: audits the Table II schedule trace and the
//       load/compute partition maps, and prints the report.
//
// Both subcommands print a human-readable report and exit non-zero when a
// violation is found, so the tool slots into CI next to `ctest`.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/hazard_checker.h"
#include "benchutil/args.h"
#include "common/rng.h"
#include "common/topology.h"
#include "parallel/roles.h"
#include "parallel/team.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"
#include "spl/algorithms.h"
#include "spl/verify.h"

using namespace bwfft;

namespace {

constexpr long long kMaxInt = std::numeric_limits<int>::max();

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s spl --dims KxNxM|NxM|N [--mu MU] "
               "[--socket-split SK]\n"
               "       %s pipeline [--threads P] [--compute PC] "
               "[--block ELEMS] [--iters N]\n",
               argv0, argv0);
  std::exit(2);
}

int check_term(const char* name, const spl::Expr& term) {
  const spl::VerifyReport rep = spl::verify(term);
  if (!rep.ok()) {
    std::printf("  %-22s FAIL\n    %s\n", name, rep.str().c_str());
    return 1;
  }
  std::printf("  %-22s ok (%zu nodes)\n", name, rep.nodes);
  return 0;
}

/// Probe a stage's data movement for permutation-ness: the rotation at
/// packet level (K (x) I_mu permutes iff K does) or the four-step L.
/// Compute-only stages (Columns, Flat) have nothing to probe.
int probe_movement(const char* name, const StagePlan& plan,
                   const PlannedStage& s, int* skipped) {
  spl::ExprPtr move;
  if (s.kind == StageKind::Rotated) {
    move = spl::rotation_k(s.geom.a, s.geom.b, s.geom.cp());
  } else if (s.kind == StageKind::Rows) {
    move = spl::stride_perm(plan.total, plan.n2);
  } else {
    return 0;
  }
  constexpr idx_t kProbeLimit = idx_t{1} << 22;
  if (move->rows() > kProbeLimit) {
    std::printf("  %-22s probe skipped (%lld elements)\n", name,
                static_cast<long long>(move->rows()));
    ++*skipped;
    return 0;
  }
  if (!spl::is_permutation(*move, kProbeLimit)) {
    std::printf("  %-22s FAIL: %s is not a permutation\n", name,
                move->str().c_str());
    return 1;
  }
  return 0;
}

int run_spl(const std::vector<idx_t>& dims, idx_t mu, int sk) {
  int failures = 0;
  int skipped = 0;
  std::printf("spl verify:\n");
  // A --mu the plan cannot use (it does not divide the fast dimension,
  // or in 1D the four-step row length) is a failure, never a skip.
  FftOptions opts;
  opts.packet_elems = mu;
  StagePlan plan;
  try {
    plan = make_stage_plan(dims, opts);
  } catch (const Error& e) {
    std::printf("  %-22s FAIL: %s\n", "stage plan", e.what());
    std::printf("spl verify: VIOLATIONS (0 skipped, 1 failures)\n");
    return 1;
  }
  if (dims.size() > 1) {
    std::printf("  plan mu=%lld\n", static_cast<long long>(plan.mu));
  } else {
    std::printf("  plan n1=%lld n2=%lld\n", static_cast<long long>(plan.n1),
                static_cast<long long>(plan.n2));
  }
  for (std::size_t k = 0; k < plan.stages.size(); ++k) {
    const char* name = plan.stages[k].name;
    failures += check_term(name, *spl::stage_term(plan, k));
    failures += probe_movement(name, plan, plan.stages[k], &skipped);
  }
  failures += check_term("plan_term", *spl::plan_term(plan));

  if (dims.size() == 2) {
    const idx_t n = dims[0], m = dims[1];
    failures += check_term("dft2d_pencil", *spl::dft2d_pencil(n, m));
    failures += check_term("dft2d_transposed", *spl::dft2d_transposed(n, m));
  } else if (dims.size() == 3) {
    const idx_t k = dims[0], n = dims[1], m = dims[2];
    failures += check_term("dft3d_pencil", *spl::dft3d_pencil(k, n, m));
  }
  // The socket plan: a requested split (sk > 0) must plan, the default
  // one is tried on 3D shapes only and skipped where it does not divide.
  if (sk > 0 || dims.size() == 3) {
    const int split = sk > 0 ? sk : 2;
    const std::string name = "plan_term sk=" + std::to_string(split);
    // The host's team, cut to a whole number of threads per socket.
    FftOptions socket_opts = opts;
    socket_opts.threads = split * std::max(1, resolved_threads(opts) / split);
    try {
      failures += check_term(name.c_str(), *spl::plan_term(make_stage_plan(
                                               dims, socket_opts, split)));
    } catch (const Error& e) {
      std::printf("  %-22s %s: %s\n", name.c_str(),
                  sk > 0 ? "FAIL" : "skipped", e.what());
      ++(sk > 0 ? failures : skipped);
    }
  }
  std::printf("spl verify: %s (%d skipped, %d failures)\n",
              failures == 0 ? "CLEAN" : "VIOLATIONS", skipped, failures);
  return failures == 0 ? 0 : 1;
}

int run_pipeline(int threads, int compute, idx_t block, idx_t iters) {
  const MachineTopology topo = host_topology();
  if (threads <= 0) threads = topo.total_threads();
  const RolePlan roles = compute < 0 ? make_even_role_plan(threads, topo)
                                     : make_role_plan(threads, compute, topo);
  std::printf("pipeline hazard check: threads=%d compute=%d block=%lld "
              "iters=%lld\n",
              threads, roles.compute, static_cast<long long>(block),
              static_cast<long long>(iters));

  ThreadTeam team(threads);
  DoubleBufferPipeline pipe(team, roles, block);

  // Synthetic copy stage shaped like a real FFT stage (load / in-place
  // compute / store over per-rank chunks).
  const idx_t total = block * iters;
  cvec src = random_cvec(total, 7);
  cvec dst(static_cast<std::size_t>(total));
  PipelineStage stage;
  stage.iterations = iters;
  stage.load = [&](idx_t i, cplx* buf, int rank, int parts) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank);
    std::memcpy(buf + b, src.data() + i * block + b,
                static_cast<std::size_t>(e - b) * sizeof(cplx));
  };
  stage.compute = [&](idx_t, cplx* buf, int rank, int parts) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank);
    for (idx_t j = b; j < e; ++j) buf[j] *= 2.0;
  };
  stage.store = [&](idx_t i, const cplx* buf, int rank, int parts) {
    auto [b, e] = ThreadTeam::chunk(block, parts, rank);
    std::memcpy(dst.data() + i * block + b, buf + b,
                static_cast<std::size_t>(e - b) * sizeof(cplx));
  };

  analysis::HazardChecker checker(pipe);
  const analysis::HazardReport rep = checker.check(stage);
  std::printf("%s\n", rep.str().c_str());

  // Data integrity double-check on top of the schedule audit.
  for (idx_t j = 0; j < total; ++j) {
    if (dst[static_cast<std::size_t>(j)] != src[static_cast<std::size_t>(j)] * 2.0) {
      std::printf("data corruption at element %lld\n",
                  static_cast<long long>(j));
      return 1;
    }
  }
  return rep.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string cmd = argv[1];

  std::vector<idx_t> dims;
  idx_t mu = 0, block = 4096, iters = 16;  // mu 0: the plan's auto packet
  int threads = 0, compute = -1, sk = 0;  // sk 0: the default split
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Strict numbers: the whole token must parse and lie in
    // [min_value, INT_MAX].
    auto next_int = [&](long long min_value) {
      long long v = 0;
      std::string err;
      if (!cli::parse_int(next(), min_value, &v, &err) || v > kMaxInt) {
        if (err.empty()) err = "out of range";
        std::fprintf(stderr, "bad %s: %s\n", arg.c_str(), err.c_str());
        usage(argv[0]);
      }
      return v;
    };
    if (arg == "--dims") {
      std::string err;
      if (!cli::parse_dims(next(), &dims, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--mu") {
      mu = next_int(1);
    } else if (arg == "--socket-split") {
      sk = static_cast<int>(next_int(1));
    } else if (arg == "--threads") {
      threads = static_cast<int>(next_int(0));
    } else if (arg == "--compute") {
      compute = static_cast<int>(next_int(0));
    } else if (arg == "--block") {
      block = next_int(1);
    } else if (arg == "--iters") {
      iters = next_int(1);
    } else {
      usage(argv[0]);
    }
  }

  try {
    if (cmd == "spl") {
      if (dims.empty()) dims = {8, 8, 8};
      return run_spl(dims, mu, sk);
    }
    if (cmd == "pipeline") {
      return run_pipeline(threads, compute, block, iters);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage(argv[0]);
}
