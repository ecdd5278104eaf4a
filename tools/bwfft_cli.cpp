// bwfft_cli — command-line driver for the library.
//
//   bwfft_cli --dims 128x128x128|512x512|4194304
//             [--engine dbuf|stagepar|slab|pencil]
//             [--threads P] [--compute PC] [--block ELEMS] [--reps R]
//             [--inverse] [--verify] [--no-nt] [--mu MU] [--stats]
//             [--trace out.json]
//
// Plans the transform, times `reps` executions, prints pseudo-Gflop/s and
// (optionally) verifies against the dense reference (small sizes) and,
// above 2^12 points, against a long-double direct sum at sampled bins
// plus the inverse round trip. With --stats the run is replayed once
// under the observability layer and a counter dump plus a per-stage
// roofline (%-of-achievable-peak against the measured STREAM bandwidth)
// is printed; --trace additionally writes a chrome://tracing JSON file.
//
// Argument parsing lives in benchutil/args.{h,cpp} so the strict
// validation is unit-tested; every numeric flag rejects trailing garbage,
// overflow and out-of-range values instead of feeding atoll() results
// into plan construction.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <chrono>
#include <future>
#include <mutex>
#include <thread>

#include "benchutil/args.h"
#include "benchutil/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "exec/batch_executor.h"
#include "fault/fault.h"
#include "fft/double_buffer.h"
#include "fft/fft.h"
#include "fft/reference.h"
#include "kernels/isa.h"
#include "obs/obs.h"
#include "stream/stream.h"
#include "tune/wisdom.h"

using namespace bwfft;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dims KxNxM|NxM|N [--engine "
               "dbuf|stagepar|slab|pencil|reference|auto] [--threads P] "
               "[--compute PC] [--block ELEMS] [--mu MU] [--reps R] "
               "[--inverse] [--verify] [--no-nt] [--stats] [--verbose] "
               "[--isa auto|scalar|avx2|avx512] [--dispatch] "
               "[--trace out.json] [--tune estimate|measure|exhaustive] "
               "[--wisdom file.json] [--serve] [--requests N] "
               "[--producers P] [--queue CAP] [--deadline-ms MS] "
               "[--quota-rate R] [--quota-burst B] [--integrity FRAC] "
               "[--retries N] [--batch-every N] [--tenants N]\n",
               argv0);
  std::exit(2);
}

EngineKind engine_kind(const std::string& s) {
  EngineKind kind = EngineKind::Reference;
  engine_kind_from_name(s, &kind);  // s was validated by parse_args
  return kind;
}

/// A typed rejection is the service shedding load as designed (queue
/// full, deadline, CoDel shed, quota) — counted and reported, but not an
/// exit-code failure like a wrong result or an exhausted recovery.
bool is_typed_rejection(ErrorCode code) {
  return code == ErrorCode::kQueueFull || code == ErrorCode::kTimeout ||
         code == ErrorCode::kOverloaded || code == ErrorCode::kQuotaExceeded;
}

/// --serve: run the configured transform as a service workload —
/// `producers` threads submit `requests` requests to one BatchExecutor
/// (persistent team, shared plan cache, bounded two-lane queue, optional
/// quotas / deadlines / retries / integrity sampling) and the
/// throughput/latency/overload-control numbers are printed. Non-zero on
/// any hard-failed request (typed rejections are tallied, not fatal).
int run_serve(const cli::Options& a, const FftOptions& base_opts,
              Direction dir, idx_t total) {
  exec::ServeOptions sopts;
  sopts.threads = a.threads;
  sopts.queue_capacity = static_cast<std::size_t>(a.queue_cap);
  sopts.plan = base_opts;
  sopts.admission.quota_rate = a.quota_rate;
  sopts.admission.quota_burst = a.quota_burst;
  sopts.integrity_fraction = a.integrity;
  sopts.watchdog = true;
  exec::BatchExecutor executor(sopts);

  const cvec seed = random_cvec(total);
  std::vector<cvec> ins, outs;
  for (int p = 0; p < a.producers; ++p) {
    ins.push_back(seed);
    outs.emplace_back(static_cast<std::size_t>(total));
  }

  std::printf(
      "serve: %d requests, %d producers, queue=%d, deadline=%d ms, "
      "quota=%.1f/s burst=%.0f, integrity=%.2f, retries=%d\n",
      a.requests, a.producers, a.queue_cap, a.deadline_ms, a.quota_rate,
      a.quota_burst, a.integrity, a.retries);
  int failed = 0, rejected = 0;
  std::mutex fail_mu;
  Timer wall;
  std::vector<std::thread> tt;
  for (int p = 0; p < a.producers; ++p) {
    tt.emplace_back([&, p] {
      std::vector<std::future<ExecReport>> pending;
      for (int r = p; r < a.requests; r += a.producers) {
        exec::Request req;
        req.dims = a.dims;
        req.dir = dir;
        req.in = ins[static_cast<std::size_t>(p)].data();
        req.out = outs[static_cast<std::size_t>(p)].data();
        if (a.deadline_ms > 0) {
          req.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(a.deadline_ms);
        }
        if (a.batch_every > 0 && r % a.batch_every == 0) {
          req.lane = exec::Lane::kBatch;
        }
        req.tenant = "tenant-" + std::to_string(p % a.tenants);
        req.retry.max_attempts = a.retries;
        pending.push_back(executor.submit(std::move(req)));
      }
      for (auto& f : pending) {
        const ExecReport rep = f.get();
        if (rep.status.ok()) continue;
        std::lock_guard<std::mutex> lk(fail_mu);
        if (is_typed_rejection(rep.status.code())) {
          ++rejected;
        } else {
          ++failed;
          std::fprintf(stderr, "serve: request failed: %s\n",
                       rep.status.str().c_str());
        }
      }
    });
  }
  for (auto& t : tt) t.join();
  const double secs = wall.seconds();

  const exec::ExecStats st = executor.stats();
  std::printf("serve: %.1f requests/s (%d in %.3f s)\n",
              static_cast<double>(a.requests) / secs, a.requests, secs);
  std::printf(
      "serve: queue wait p50=%.3f ms p99=%.3f ms; end-to-end p50=%.3f ms "
      "p99=%.3f ms\n",
      static_cast<double>(st.queue_wait.quantile_ns(0.50)) / 1e6,
      static_cast<double>(st.queue_wait.quantile_ns(0.99)) / 1e6,
      static_cast<double>(st.end_to_end.quantile_ns(0.50)) / 1e6,
      static_cast<double>(st.end_to_end.quantile_ns(0.99)) / 1e6);
  std::printf(
      "serve: batches=%llu occupancy=%.2f (max %zu) peak_queue=%zu "
      "completed=%llu failed=%llu\n",
      static_cast<unsigned long long>(st.batches), st.batch_occupancy(),
      st.max_batch_occupancy, st.peak_queue_depth,
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.failed));
  std::printf(
      "serve: rejected_full=%llu timed_out=%llu shed=%llu quota=%llu "
      "retried=%llu quarantined=%llu\n",
      static_cast<unsigned long long>(st.rejected_full),
      static_cast<unsigned long long>(st.timed_out),
      static_cast<unsigned long long>(st.shed),
      static_cast<unsigned long long>(st.quota_rejected),
      static_cast<unsigned long long>(st.retried),
      static_cast<unsigned long long>(st.quarantined));
  std::printf(
      "serve: integrity checked=%llu failed=%llu; watchdog scans=%llu "
      "slow_batches=%llu drift_events=%llu\n",
      static_cast<unsigned long long>(st.integrity_checked),
      static_cast<unsigned long long>(st.integrity_failed),
      static_cast<unsigned long long>(st.watchdog_scans),
      static_cast<unsigned long long>(st.slow_batches),
      static_cast<unsigned long long>(st.latency_drift_events));
  for (std::size_t l = 0; l < exec::kLaneCount; ++l) {
    if (st.submitted_by_lane[l] == 0) continue;
    std::printf(
        "serve: lane %-11s submitted=%llu completed=%llu wait "
        "p50=%.3f ms p99=%.3f ms\n",
        exec::lane_name(static_cast<exec::Lane>(static_cast<int>(l))),
        static_cast<unsigned long long>(st.submitted_by_lane[l]),
        static_cast<unsigned long long>(st.completed_by_lane[l]),
        static_cast<double>(st.lane_queue_wait[l].quantile_ns(0.50)) / 1e6,
        static_cast<double>(st.lane_queue_wait[l].quantile_ns(0.99)) / 1e6);
  }
  if (rejected > 0) {
    std::printf("serve: %d requests rejected with typed backpressure\n",
                rejected);
  }
  return failed == 0 ? 0 : 1;
}

/// The dense reference is O(N^2) along each axis, so it checks only
/// shapes up to kDenseMax points, and 1D ones up to kSampledMin; every
/// shape above kSampledMin points is checked at sampled bins.
constexpr idx_t kDenseMax = idx_t{1} << 18;
constexpr idx_t kSampledMin = idx_t{1} << 12;

/// --verify: `out` is the transform of `original`. Shapes within the
/// dense bound are checked against the dense reference. Every shape above
/// kSampledMin points must also match the long-double direct sum
/// (fft/reference.h) at 8 sampled bins within 16 * eps * log2(N) *
/// ||x||_2 each, and round-trip through the inverse plan, which consumes
/// `out`.
bool verify(const std::vector<idx_t>& dims, Direction dir,
            const FftOptions& opts, const cvec& original, cvec& out) {
  const idx_t total = static_cast<idx_t>(original.size());
  bool ok = true;
  if (total <= kDenseMax && (dims.size() > 1 || total <= kSampledMin)) {
    cvec ref_in = original, want(original.size());
    FftOptions ref;
    ref.engine = EngineKind::Reference;
    make_engine(dims, dir, ref)->execute(ref_in.data(), want.data());
    double verr = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      verr = std::max(verr, std::abs(want[i] - out[i]));
    }
    ok = verr < 1e-8;
    std::printf("verify vs dense reference: max err = %.3e [%s]\n", verr,
                ok ? "OK" : "FAIL");
  }
  if (total <= kSampledMin) return ok;

  std::vector<idx_t> bins = {0, 1, total / 2, total - 1};
  std::mt19937_64 rng(9601);
  std::uniform_int_distribution<idx_t> pick(0, total - 1);
  while (bins.size() < 8) bins.push_back(pick(rng));
  const auto want = direct_bins(original.data(), dims, bins, dir);
  long double norm2 = 0;
  for (const cplx& v : original) norm2 += std::norm(std::complex<long double>(v));
  const double gate = 16.0 * std::numeric_limits<double>::epsilon() *
                      std::log2(static_cast<double>(total)) *
                      static_cast<double>(std::sqrt(norm2));
  double berr = 0.0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const cplx g = out[static_cast<std::size_t>(bins[i])];
    berr = std::max(berr, static_cast<double>(std::abs(
                              std::complex<long double>(g.real(), g.imag()) -
                              want[i])));
  }
  const bool bins_ok = berr <= gate;
  std::printf("verify vs long-double sum at %zu bins: max err = %.3e "
              "(gate %.3e) [%s]\n",
              bins.size(), berr, gate, bins_ok ? "OK" : "FAIL");

  FftOptions iopts = opts;
  iopts.normalize_inverse = true;
  const bool inverse = dir == Direction::Inverse;
  cvec back(original.size());
  make_engine_recovering(dims, inverse ? Direction::Forward
                                       : Direction::Inverse, iopts)
      ->execute(out.data(), back.data());
  double verr = 0.0;
  const double scale =
      inverse ? static_cast<double>(total) : 1.0;  // inv∘fwd picks up N
  for (std::size_t i = 0; i < back.size(); ++i) {
    verr = std::max(verr, std::abs(back[i] / scale - original[i]));
  }
  std::printf("verify round-trip: max err = %.3e [%s]\n", verr,
              verr < 1e-8 ? "OK" : "FAIL");
  return ok && bins_ok && verr < 1e-8;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Options a;
  std::string err;
  if (!cli::parse_args(std::vector<std::string>(argv + 1, argv + argc), &a,
                       &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    usage(argv[0]);
  }
  if (!a.isa.empty()) {
    kernels::Isa isa = kernels::Isa::Auto;
    kernels::isa_from_name(a.isa, &isa);  // a.isa was validated by parse_args
    kernels::set_isa_override(isa);
  }
  if (a.dispatch) {
    // Print where the same binary lands on this host (cpuid, BWFFT_ISA,
    // overrides) and exit — the CI dispatch-report check drives this.
    std::fputs(kernels::dispatch_report().c_str(), stdout);
    return 0;
  }
  const EngineKind kind = engine_kind(a.engine);
  if (a.dims.size() == 1 && kind == EngineKind::SlabPencil) {
    std::fprintf(stderr, "--engine slab is a 3D decomposition; 1D sizes "
                         "take dbuf|stagepar|pencil|reference|auto\n");
    usage(argv[0]);
  }
  idx_t total = 1;
  for (idx_t d : a.dims) total *= d;

  FftOptions opts;
  opts.engine = kind;
  opts.threads = a.threads;
  opts.compute_threads = a.compute;
  opts.block_elems = a.block;
  opts.packet_elems = a.mu;
  opts.nontemporal = a.nontemporal;
  if (!a.isa.empty()) kernels::isa_from_name(a.isa, &opts.isa);
  if (!a.tune.empty()) tune_level_from_name(a.tune, &opts.tune_level);
  const Direction dir = a.inverse ? Direction::Inverse : Direction::Forward;

  // Wisdom file: load (tolerantly) before planning so an auto plan can
  // skip measurement, save the merged store afterwards.
  if (!a.wisdom_path.empty()) {
    tune::Wisdom file_wisdom;
    std::string werr;
    int skipped = 0;
    if (tune::load_wisdom_file_guarded(&file_wisdom, a.wisdom_path, &werr,
                                       &skipped)) {
      if (skipped > 0) {
        std::fprintf(stderr, "wisdom: skipped %d malformed entries in %s\n",
                     skipped, a.wisdom_path.c_str());
      }
      tune::global_wisdom_merge(file_wisdom);
    } else {
      std::fprintf(stderr, "wisdom: %s (starting fresh)\n", werr.c_str());
    }
  }

  if (a.serve) return run_serve(a, opts, dir, total);

  cvec original = random_cvec(total);
  cvec in(original.size()), out(original.size());

  std::printf("dims=");
  for (std::size_t i = 0; i < a.dims.size(); ++i) {
    std::printf("%s%lld", i ? "x" : "", static_cast<long long>(a.dims[i]));
  }
  std::printf(" engine=%s dir=%s threads=%d\n", engine_name(kind),
              a.inverse ? "inverse" : "forward", resolved_threads(opts));

  // One path for every rank, with the facades' recovery ladder: an
  // injected or real failure degrades the plan (fewer threads, plain
  // memory, fallback engine) instead of aborting the tool, and --verbose
  // shows what the recovery layer did. A plan the shape cannot run
  // (kBadPlan) exits 1 like a failed execute.
  std::unique_ptr<MdEngine> plan;
  try {
    plan = make_engine_recovering(a.dims, dir, opts);
  } catch (const Error& e) {
    std::fprintf(stderr, "plan failed: %s\n", e.what());
    return 1;
  }
  if (kind == EngineKind::Auto) {
    std::printf("auto (%s): resolved to engine=%s\n",
                tune_level_name(opts.tune_level), plan->name());
  }
  if (!a.wisdom_path.empty()) {
    std::string werr;
    if (!tune::global_wisdom_snapshot().save_file(a.wisdom_path, &werr)) {
      std::fprintf(stderr, "wisdom: %s\n", werr.c_str());
      return 1;
    }
  }
  ExecReport rep;
  // Restore the input (engines may clobber it), then time only the
  // transform: at 2^24 elements the restore alone is a 256 MiB copy.
  auto run_once = [&](double* seconds) -> Status {
    std::copy(original.begin(), original.end(), in.begin());
    Timer t;
    const Status st = try_execute_recovering(a.dims, dir, opts, plan,
                                             in.data(), out.data(), &rep);
    if (seconds != nullptr) *seconds = t.seconds();
    return st;
  };

  double best = 1e30;
  for (int r = 0; r < a.reps; ++r) {
    double secs = 0.0;
    const Status st = run_once(&secs);
    if (!st.ok()) {
      std::fprintf(stderr, "execute failed: %s\n", st.str().c_str());
      const std::string freport = fault::report();
      if (!freport.empty()) std::fprintf(stderr, "%s", freport.c_str());
      return 1;
    }
    best = std::min(best, secs);
  }
  std::printf("best of %d: %.3f ms, %.2f pseudo-Gflop/s\n", a.reps,
              best * 1e3, fft_gflops(static_cast<double>(total), best));

  if (a.verbose) {
    std::printf("status: %s (engine=%s, threads=%d, retries=%d)\n",
                rep.status.str().c_str(), rep.engine.c_str(),
                rep.threads_used, rep.retries);
    // fault::report() covers both the fired injection sites and the
    // degradation notes (the same lines ExecReport::degradations carries).
    const std::string freport = fault::report();
    if (!freport.empty()) std::printf("%s", freport.c_str());
    std::printf(
        "faults injected=%llu retries=%llu degradations=%llu\n",
        static_cast<unsigned long long>(fault::injected_count()),
        static_cast<unsigned long long>(fault::retried_count()),
        static_cast<unsigned long long>(fault::degraded_count()));
  }

  // Observed replay: one extra execution with counters zeroed and the
  // slice recorder armed. Kept out of the timed loop so the published
  // number is never measured with tracing on.
  if (a.stats || !a.trace_path.empty()) {
    obs::reset_counters();
    obs::start_trace();
    if (const Status st = run_once(nullptr); !st.ok()) {
      std::fprintf(stderr, "observed replay failed: %s\n", st.str().c_str());
      return 1;
    }
    obs::stop_trace();
    const std::vector<obs::Slice> slices = obs::drain_trace();

    if (!a.trace_path.empty()) {
      if (obs::write_chrome_trace(a.trace_path, slices)) {
        std::printf("trace: %zu slices -> %s (load in chrome://tracing)\n",
                    slices.size(), a.trace_path.c_str());
        if (obs::dropped_slices() > 0) {
          std::printf("trace: %llu slices dropped (ring full)\n",
                      static_cast<unsigned long long>(obs::dropped_slices()));
        }
      } else {
        std::fprintf(stderr, "trace: cannot write %s\n",
                     a.trace_path.c_str());
        return 1;
      }
#if !defined(BWFFT_OBS)
      std::printf("trace: built with BWFFT_OBS=OFF — no instrumentation\n");
#endif
    }

    if (a.stats) {
      obs::print_counters(obs::counters());
      const double bw = measured_stream_bandwidth_gbs();
      const double stage_bytes =
          2.0 * static_cast<double>(total) * sizeof(cplx);
      const auto roof = obs::roofline_from_trace(slices, stage_bytes, bw);
      if (!roof.empty()) obs::print_roofline(roof, bw);
      if (const auto* eng = dynamic_cast<DoubleBufferEngine*>(plan.get())) {
        const StagePlan& sp = eng->plan();
        std::printf("  plan: p=%d p_c=%d p_d=%d schedule=%s\n", sp.threads,
                    sp.compute_threads, sp.data_threads,
                    schedule_name(sp.schedule()));
        const auto& st = eng->last_stats();
        for (std::size_t s = 0; s < st.size(); ++s) {
          std::printf("  stage %zu: %.3f ms, %lld iters x %lld rows/block", s,
                      st[s].seconds * 1e3,
                      static_cast<long long>(st[s].iterations),
                      static_cast<long long>(st[s].block_rows));
          const auto& u = st[s].util;
          if (sp.schedule() == Schedule::Private && u.max_claims > 0) {
            // The claim size, the imbalance barrier_wait_ns absorbs, and
            // the data tasks the claims fold into their compute.
            const idx_t bytes = st[s].block_rows * sp.stages[s].row_elems *
                                static_cast<idx_t>(sizeof(cplx));
            std::printf(", claim %lld rows x %lld KiB, %lld..%lld "
                        "claims/thread, fused %s",
                        static_cast<long long>(st[s].block_rows),
                        static_cast<long long>(bytes >> 10),
                        static_cast<long long>(u.min_claims),
                        static_cast<long long>(u.max_claims),
                        fusion_name(st[s].fused));
          }
          std::printf("\n");
        }
      }
    }
  }

  if (a.verify) return verify(a.dims, dir, opts, original, out) ? 0 : 1;
  return 0;
}
