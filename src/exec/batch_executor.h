// Persistent batch-execution service — the serving layer.
//
// The facades (Fft2d/Fft3d) assume one exclusive caller per machine:
// every plan spawns its own thread team, so concurrent callers
// oversubscribe the cores and pay plan + thread startup per call. The
// BatchExecutor is the multi-tenant answer: it owns one persistent,
// pinned thread team (drawn from parallel::TeamPool, sized from the
// plan topology, the host by default) and a bounded two-lane MPMC
// submission queue.
// Producers call submit(request) -> std::future<ExecReport>; a
// dispatcher thread pops requests, coalesces same-shape neighbours into
// batches, runs each batch through a shared tune::PlanCache plan (plans
// built once, teams never respawned) and fulfils the futures.
//
// Overload control and self-healing (docs/INTERNALS.md §14):
//   * submit-side admission — per-tenant token-bucket quotas reject with
//     kQuotaExceeded; a full queue rejects with kQueueFull (immediately,
//     or — when the request carries a deadline — after waiting for space
//     until that deadline);
//   * priority lanes — interactive requests drain first (with a bounded
//     anti-starvation weight for the batch lane) and hold a capacity
//     reserve batch submits may not occupy;
//   * dequeue-side shedding — CoDel on the batch lane's sojourn time
//     completes requests with kOverloaded instead of letting a standing
//     queue grow latency without bound;
//   * retry — a request whose execution fails transiently (kStall /
//     kWorkerLost) is re-queued with exponential backoff + jitter, up to
//     its RetryPolicy's attempt budget, on top of the per-execution
//     PR-4 recovery inside CachedPlan::try_execute;
//   * quarantine — a plan whose executions keep failing (or that fails
//     an integrity check) is evicted from the PlanCache and rebuilt
//     under a new variant tag at TuneLevel::Estimate;
//   * integrity spot-checks — a configurable fraction of served requests
//     is energy-checked (Parseval) after execution; a mismatch turns a
//     silently-wrong result into a typed kDataCorrupt report;
//   * health watchdog — an optional background thread (plus the
//     check_health() entry point) that flags stuck batches via the
//     dispatcher heartbeat and end-to-end latency drift against an
//     established baseline.
//
// A request whose deadline passes before its batch starts is completed
// with kTimeout without executing. Execution failures route through the
// PR-4 recovery policy (CachedPlan::try_execute): a stalled or lost
// worker degrades that plan — fewer threads, then the reference
// engine — so one bad request degrades instead of killing the service.
//
// Instrumented with obs counters (exec_submit/reject/timeout/complete/
// batch/shed/quota_exceeded/retry/quarantine/integrity_check/
// data_corrupt/slow_batch, exec_queue_ns) plus local queue-wait and
// end-to-end latency histograms, and a chrome-trace track for the
// dispatcher (docs/INTERNALS.md §11).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/thread_safety.h"
#include "common/types.h"
#include "exec/admission.h"
#include "exec/queue.h"
#include "fft/fft.h"
#include "fft/options.h"
#include "parallel/team_pool.h"
#include "tune/plan_cache.h"

namespace bwfft::exec {

/// One transform request. `in`/`out` stay owned by the caller and must
/// outlive the future's completion; engines may clobber `in` (the
/// FFTW_DESTROY_INPUT convention).
struct Request {
  std::vector<idx_t> dims;  ///< 1, 2 or 3 entries, slowest first; a
                            ///< single entry is a (large) 1D transform
                            ///< routed through make_engine's 1D engines
  Direction dir = Direction::Forward;
  cplx* in = nullptr;
  cplx* out = nullptr;
  /// Latest acceptable start time. Default (epoch zero) = no deadline.
  /// Also bounds how long submit() waits for queue space.
  Clock::time_point deadline{};
  /// Priority class. Interactive (the default) drains first, is never
  /// shed by CoDel, and may use the queue's reserved slots; mark bulk
  /// work kBatch so it absorbs the shedding instead.
  Lane lane = Lane::kInteractive;
  /// Quota identity. Tenants share the executor; each name gets its own
  /// token bucket when ServeOptions::admission.quota_rate > 0.
  std::string tenant;
  /// Dispatcher-level retry budget for transient execution failures.
  RetryPolicy retry{};
};

struct ServeOptions {
  /// Thread budget of the persistent team; 0 = every hardware thread of
  /// plan.topo (resolved_threads).
  int threads = 0;
  /// Pin the team per the role plan (the paper's compute/soft-DMA
  /// pairing). Best effort, like every pin in the library.
  bool pin_threads = true;
  std::size_t queue_capacity = 256;
  /// Most requests coalesced into one dispatch sweep.
  std::size_t max_batch = 16;
  /// Base options for every plan the service builds (engine, tune level,
  /// block/packet knobs). threads/pin_threads/team_pool are overridden by
  /// the executor so all plans share its persistent team.
  FftOptions plan{};
  /// Plan store; null = an executor-private cache.
  tune::PlanCache* cache = nullptr;
  /// Construct with the dispatcher parked (resume() starts it). Lets
  /// tests fill the queue deterministically; a running service created
  /// paused accepts submits but completes none until resumed.
  bool start_paused = false;

  /// Quotas, CoDel shedding and lane weighting (exec/admission.h).
  AdmissionOptions admission{};
  /// Fraction of successfully-executed requests energy-checked after
  /// execution (Parseval). 0 disables; 1 checks every request. Sampling
  /// is deterministic (every round(1/fraction)-th request).
  double integrity_fraction = 0.0;
  /// Consecutive execution failures of one plan key before the plan is
  /// quarantined (evicted and rebuilt at TuneLevel::Estimate). A failed
  /// integrity check quarantines immediately.
  int quarantine_after = 2;
  /// Run the background health watchdog thread. check_health() performs
  /// the same scan on demand either way.
  bool watchdog = false;
  std::chrono::milliseconds watchdog_interval{100};
  /// A batch still running after this long is flagged (exec_slow_batch).
  std::chrono::milliseconds slow_batch_after{1000};
  /// End-to-end p99 above drift_factor x the established baseline p99
  /// counts a latency-drift event.
  double drift_factor = 8.0;
};

/// Capacity of ExecStats::completion_order (oldest kept; the cap bounds
/// the stats copy, not the service).
inline constexpr std::size_t kCompletionOrderCap = 1024;

struct ExecStats {
  std::uint64_t submitted = 0;      ///< accepted into the queue
  std::uint64_t rejected_full = 0;  ///< kQueueFull backpressure rejections
  std::uint64_t timed_out = 0;      ///< kTimeout deadline expiries
  std::uint64_t completed = 0;      ///< futures fulfilled with ok status
  std::uint64_t failed = 0;         ///< futures fulfilled with an error
  std::uint64_t batches = 0;        ///< coalesced dispatches
  std::uint64_t batched_requests = 0;  ///< requests across those batches
  std::size_t max_batch_occupancy = 0; ///< largest same-shape batch seen
  std::size_t queue_depth = 0;      ///< at snapshot time
  std::size_t peak_queue_depth = 0;
  LatencyHistogram queue_wait;  ///< enqueue -> dispatch start
  LatencyHistogram end_to_end;  ///< enqueue -> future fulfilled

  // Overload-control tallies (§14).
  std::uint64_t shed = 0;             ///< kOverloaded (CoDel / exec.shed)
  std::uint64_t quota_rejected = 0;   ///< kQuotaExceeded at submit
  std::uint64_t retried = 0;          ///< transient failures re-queued
  std::uint64_t quarantined = 0;      ///< plans evicted and rebuilt
  std::uint64_t integrity_checked = 0;
  std::uint64_t integrity_failed = 0; ///< kDataCorrupt reports
  std::uint64_t slow_batches = 0;     ///< watchdog stuck-batch flags
  std::uint64_t latency_drift_events = 0;
  std::uint64_t watchdog_scans = 0;
  /// Per-lane accounting, indexed by static_cast<int>(Lane).
  std::array<std::uint64_t, kLaneCount> submitted_by_lane{};
  std::array<std::uint64_t, kLaneCount> completed_by_lane{};
  std::array<LatencyHistogram, kLaneCount> lane_queue_wait{};
  /// Lane of each fulfilled request in completion order (first
  /// kCompletionOrderCap entries) — the starvation tests read the
  /// documented I I B I I B ... drain pattern off this.
  std::vector<int> completion_order;

  /// Mean requests per batch (batch occupancy).
  double batch_occupancy() const {
    return batches ? static_cast<double>(batched_requests) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

class BatchExecutor {
 public:
  explicit BatchExecutor(ServeOptions opts = {});
  ~BatchExecutor();  // drains the queue, then stops

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Enqueue one request. The returned future is always eventually
  /// fulfilled — with the execution's ExecReport, or with a typed
  /// rejection (kQueueFull / kQuotaExceeded / kTimeout at submit,
  /// kOverloaded / kTimeout at dispatch).
  std::future<ExecReport> submit(Request req);

  /// Blocking convenience: submit every request (waiting for queue space,
  /// bounded by each request's deadline) and wait for all results.
  /// `reports`, if non-null, is resized to match. Returns the first
  /// non-ok status, else Ok.
  Status execute_many(std::vector<Request> reqs,
                      std::vector<ExecReport>* reports = nullptr);

  /// Stop dispatching (in-flight batch finishes). Queued and newly
  /// submitted requests wait until resume(). Used for drain windows and
  /// deterministic backpressure tests.
  void pause();
  void resume();

  /// Reject new submits, execute everything already queued, stop the
  /// dispatcher. Idempotent; the destructor calls it.
  void shutdown();

  /// One watchdog scan, on the caller's thread: stuck-batch heartbeat
  /// check plus latency-drift detection. The background watchdog thread
  /// (ServeOptions::watchdog) calls this on its interval; tests and
  /// operators call it directly for deterministic coverage.
  void check_health();

  ExecStats stats() const;
  int threads() const { return threads_; }
  const tune::PlanCache& cache() const { return *cache_; }

 private:
  struct Job {
    Request req;
    std::promise<ExecReport> promise;
    std::uint64_t enqueue_ns = 0;
    std::string key;  // dims + direction: the coalescing identity
    std::uint64_t seq = 0;  // submit order; seeds the retry jitter
    int attempt = 1;        // execution attempts so far, this one included
    Clock::time_point not_before{};  // retry backoff gate (epoch 0 = none)
  };

  /// Dispatcher-private health record of one plan key.
  struct PlanHealth {
    int consecutive_failures = 0;
    int generation = 0;  // bumped on quarantine; keys the rebuilt variant
  };

  static std::string key_of(const Request& req);
  FftOptions plan_options() const;
  FftOptions plan_options_for(int generation) const;
  static std::string variant_of(int generation);
  void dispatch_loop();
  void run_batch(std::vector<Job>& batch);
  void finish(Job& job, const ExecReport& rep, std::uint64_t end_ns);
  /// True when the popped job was shed (kOverloaded) instead of batched.
  bool maybe_shed(Job& job, std::uint64_t now_ns);
  /// Post-execute Parseval check; non-ok = kDataCorrupt.
  Status integrity_check(const Job& job, double in_energy,
                         const FftOptions& resolved) const;
  void quarantine_plan(const Job& job, PlanHealth& health);
  void watchdog_loop();

  ServeOptions opts_;
  int threads_ = 0;
  std::shared_ptr<ThreadTeam> team_;  // the persistent, pinned team
  std::vector<int> team_cpus_;        // its pin list (for plan matching)
  std::unique_ptr<tune::PlanCache> owned_cache_;
  tune::PlanCache* cache_ = nullptr;
  LaneQueue<Job> queue_;
  AdmissionController admission_;
  std::atomic<std::uint64_t> seq_{0};

  // Dispatcher-private state: CoDel control law, plan health map and the
  // integrity sampling counter are touched only from dispatch_loop() /
  // run_batch(), so they need no lock.
  CoDelState codel_;
  std::map<std::string, PlanHealth> plan_health_;
  std::uint64_t integrity_seq_ = 0;

  // Watchdog heartbeat: obs::now_ns() when the in-flight batch started,
  // 0 while the dispatcher is between batches. last_slow_flag_ns_ keeps
  // one flag per batch (rising edge).
  std::atomic<std::uint64_t> batch_start_ns_{0};
  std::atomic<std::uint64_t> last_slow_flag_ns_{0};

  // Lock discipline (checked by the clang -Wthread-safety CI legs):
  // stats_mu_ guards the counter block and the drift baseline, pause_mu_
  // guards the dispatcher gate. Neither is ever held across an execute
  // or a queue wait.
  mutable Mutex stats_mu_;
  ExecStats stats_ BWFFT_GUARDED_BY(stats_mu_);
  std::uint64_t baseline_p99_ns_ BWFFT_GUARDED_BY(stats_mu_) = 0;
  bool in_drift_ BWFFT_GUARDED_BY(stats_mu_) = false;

  Mutex pause_mu_;
  CondVar pause_cv_;  // signalled on resume() and shutdown()
  bool paused_ BWFFT_GUARDED_BY(pause_mu_) = false;
  bool stopping_ BWFFT_GUARDED_BY(pause_mu_) = false;

  std::thread dispatcher_;
  std::thread watchdog_;
};

}  // namespace bwfft::exec
