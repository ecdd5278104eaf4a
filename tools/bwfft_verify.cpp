// bwfft_verify — correctness-tooling CLI.
//
//   bwfft_verify spl --dims KxNxM|NxM [--mu MU] [--socket-split SK]
//       Build the paper's factorisations for the given problem, run the
//       SPL static verifier over every term, probe the L/K nodes for
//       permutation-ness, and verify the lowered program of the 1D
//       four-step term. Exit 0 iff everything is clean.
//
//   bwfft_verify pipeline [--threads P] [--compute PC] [--block ELEMS]
//                         [--iters N]
//       Run a synthetic copy stage through DoubleBufferPipeline under the
//       hazard checker: audits the Table II schedule trace and the
//       load/compute partition maps, and prints the report.
//
// Both subcommands print a human-readable report and exit non-zero when a
// violation is found, so the tool slots into CI next to `ctest`.
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
#include "spl/algorithms.h"
#include "spl/lower.h"
#include "spl/verify.h"

using namespace bwfft;

namespace {

constexpr long long kMaxInt = std::numeric_limits<int>::max();

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s spl --dims KxNxM|NxM [--mu MU] [--socket-split SK]\n"
               "       %s pipeline [--threads P] [--compute PC] "
               "[--block ELEMS] [--iters N]\n",
               argv0, argv0);
  std::exit(2);
}

int check_term(const char* name, const spl::Expr& term, bool expect_perm) {
  const spl::VerifyReport rep = spl::verify(term);
  int failures = 0;
  if (!rep.ok()) {
    std::printf("  %-22s FAIL\n    %s\n", name, rep.str().c_str());
    ++failures;
  } else {
    std::printf("  %-22s ok (%zu nodes)\n", name, rep.nodes);
  }
  if (expect_perm && !spl::is_permutation(term)) {
    std::printf("  %-22s FAIL: not a permutation\n", name);
    ++failures;
  }
  return failures;
}

int run_spl(const std::vector<idx_t>& dims, idx_t mu, bool mu_requested,
            int sk) {
  int failures = 0;
  int skipped = 0;
  std::printf("spl verify:\n");
  // An inapplicable packet size used to skip the blocked variants
  // SILENTLY, so `--mu 3` on an odd row length reported CLEAN and exit 0
  // without verifying anything the caller asked for. Now every skip
  // prints, and a skip of an explicitly requested --mu is a failure.
  const bool mu_ok = mu >= 1 && dims.back() % mu == 0;
  if (!mu_ok && mu_requested) {
    std::printf("  %-22s FAIL: requested --mu %lld does not divide m=%lld\n",
                "packet size", static_cast<long long>(mu),
                static_cast<long long>(dims.back()));
    ++failures;
  }
  if (dims.size() == 2) {
    const idx_t n = dims[0], m = dims[1];
    failures += check_term("dft2d_pencil", *spl::dft2d_pencil(n, m), false);
    failures +=
        check_term("dft2d_transposed", *spl::dft2d_transposed(n, m), false);
    if (mu_ok) {
      failures +=
          check_term("dft2d_blocked", *spl::dft2d_blocked(n, m, mu), false);
    } else {
      std::printf("  %-22s skipped (mu=%lld does not divide m=%lld)\n",
                  "dft2d_blocked", (long long)mu, (long long)m);
      ++skipped;
    }
    failures += check_term("L (stride perm)", *spl::stride_perm(n * m, m), true);
  } else {
    const idx_t k = dims[0], n = dims[1], m = dims[2];
    failures += check_term("dft3d_pencil", *spl::dft3d_pencil(k, n, m), false);
    if (mu_ok) {
      failures +=
          check_term("dft3d_rotated", *spl::dft3d_rotated(k, n, m, mu), false);
      failures += check_term("rotation_k_blocked",
                             *spl::rotation_k_blocked(k, n, m, mu), true);
      if (sk > 1 && k % sk == 0) {
        failures += check_term("dft3d_dual_socket",
                               *spl::dft3d_dual_socket(k, n, m, mu, sk), false);
      } else if (sk > 1) {
        std::printf("  %-22s skipped (socket split %lld does not divide k=%lld)\n",
                    "dft3d_dual_socket", (long long)sk, (long long)k);
        ++skipped;
      }
    } else {
      std::printf("  %-22s skipped (mu=%lld does not divide m=%lld)\n",
                  "dft3d_rotated/blocked", (long long)mu, (long long)m);
      skipped += 2;
      if (sk > 1) {
        std::printf("  %-22s skipped (needs a valid mu)\n",
                    "dft3d_dual_socket");
        ++skipped;
      }
    }
    failures += check_term("rotation_k", *spl::rotation_k(k, n, m), true);
  }

  // Lowered-plan conservation on the four-step 1D term of the total size.
  idx_t total = 1;
  for (idx_t d : dims) total *= d;
  idx_t a = 1;
  while (a * a < total) a *= 2;
  if (total % a == 0) {
    const auto term = spl::dft1d_four_step(a, total / a);
    const spl::Program prog = spl::lower(*term);
    const spl::VerifyReport rep = spl::verify(prog);
    if (!rep.ok()) {
      std::printf("  %-22s FAIL\n    %s\n", "lowered four-step", rep.str().c_str());
      ++failures;
    } else {
      std::printf("  %-22s ok (%zu ops conserve %lld elements)\n",
                  "lowered four-step", prog.ops().size(),
                  static_cast<long long>(total));
    }
  } else {
    std::printf("  %-22s skipped (%lld is not split by a=%lld)\n",
                "lowered four-step", static_cast<long long>(total),
                static_cast<long long>(a));
    ++skipped;
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
  idx_t mu = 2, block = 4096, iters = 16;
  bool mu_requested = false;
  int threads = 0, compute = -1, sk = 2;
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
      mu_requested = true;
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
      if (dims.size() != 2 && dims.size() != 3) usage(argv[0]);
      return run_spl(dims, mu, mu_requested, sk);
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
