#include "exec/batch_executor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/topology.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "parallel/roles.h"
#include "pipeline/stage_plan.h"

namespace bwfft::exec {

namespace {

ExecReport rejected_report(ErrorCode code, const std::string& what) {
  ExecReport rep;
  rep.status = Status(code, what);
  return rep;
}

bool has_deadline(const Request& req) {
  return req.deadline.time_since_epoch().count() != 0;
}

bool deadline_passed(const Request& req) {
  return has_deadline(req) && Clock::now() >= req.deadline;
}

std::size_t lane_idx(Lane lane) {
  return static_cast<std::size_t>(static_cast<int>(lane));
}

/// A rejection is not an execution failure: timeouts, sheds and quota
/// bounces are the service working as designed, so they stay out of the
/// failed counter (and out of the plan-health bookkeeping).
bool is_rejection(ErrorCode code) {
  return code == ErrorCode::kTimeout || code == ErrorCode::kOverloaded ||
         code == ErrorCode::kQuotaExceeded;
}

double energy_of(const cplx* p, idx_t n) {
  double e = 0.0;
  for (idx_t i = 0; i < n; ++i) e += std::norm(p[i]);
  return e;
}

std::uint64_t to_ns(std::chrono::milliseconds ms) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ms).count());
}

}  // namespace

std::string BatchExecutor::key_of(const Request& req) {
  std::string k;
  for (std::size_t i = 0; i < req.dims.size(); ++i) {
    k += (i ? "x" : "") + std::to_string(req.dims[i]);
  }
  k += req.dir == Direction::Forward ? ":f" : ":i";
  return k;
}

FftOptions BatchExecutor::plan_options() const {
  FftOptions o = opts_.plan;
  o.threads = threads_;
  o.pin_threads = opts_.pin_threads;
  // Every plan draws from the TeamPool, so plans whose role split matches
  // the executor's persistent team attach to exactly it — the team is
  // spawned once for the life of the service.
  o.team_pool = true;
  return o;
}

FftOptions BatchExecutor::plan_options_for(int generation) const {
  FftOptions o = plan_options();
  if (generation > 0) {
    // Quarantine rebuild: no measuring pass on a plan that keeps failing
    // (an Estimate-ranked candidate is ready immediately, and a broken
    // machine state would poison measurements anyway).
    o.tune_level = TuneLevel::Estimate;
  }
  return o;
}

std::string BatchExecutor::variant_of(int generation) {
  return generation == 0 ? std::string()
                         : "q" + std::to_string(generation);
}

BatchExecutor::BatchExecutor(ServeOptions opts)
    : opts_(opts),
      queue_(opts.queue_capacity, opts.admission.interactive_reserve,
             opts.admission.batch_starvation_limit),
      admission_(opts.admission),
      codel_(opts.admission.codel_target, opts.admission.codel_interval) {
  BWFFT_CHECK(opts_.queue_capacity >= 1, "queue capacity must be >= 1");
  BWFFT_CHECK(opts_.max_batch >= 1, "max_batch must be >= 1");
  // interactive_reserve is an upper bound: LaneQueue clamps it to
  // capacity - 1, so the default reserve works with tiny test queues.
  BWFFT_CHECK(opts_.admission.batch_starvation_limit >= 1,
              "batch_starvation_limit must be >= 1");
  BWFFT_CHECK(opts_.admission.quota_rate >= 0.0,
              "quota_rate must be >= 0");
  BWFFT_CHECK(opts_.admission.quota_rate == 0.0 ||
                  opts_.admission.quota_burst >= 1.0,
              "quota_burst must be >= 1 when quotas are on");
  BWFFT_CHECK(opts_.admission.codel_target.count() > 0 &&
                  opts_.admission.codel_interval.count() > 0,
              "CoDel target/interval must be positive");
  BWFFT_CHECK(opts_.integrity_fraction >= 0.0 &&
                  opts_.integrity_fraction <= 1.0,
              "integrity_fraction must be in [0, 1]");
  BWFFT_CHECK(opts_.quarantine_after >= 1, "quarantine_after must be >= 1");
  BWFFT_CHECK(opts_.watchdog_interval.count() > 0,
              "watchdog_interval must be positive");
  BWFFT_CHECK(opts_.slow_batch_after.count() > 0,
              "slow_batch_after must be positive");
  BWFFT_CHECK(opts_.drift_factor >= 1.0, "drift_factor must be >= 1");
  FftOptions budget = opts_.plan;
  budget.threads = opts_.threads;
  threads_ = resolved_threads(budget);

  // Pre-spawn the persistent team the default engine will ask for: the
  // double-buffer role plan's pin list for this thread budget, at the
  // plan rule's split. Plans with other pin shapes (unpinned engines,
  // degraded budgets) pool their own teams on first use; this one is the
  // steady-state workhorse.
  const RolePlan roles = make_role_plan(
      threads_,
      opts_.plan.compute_threads >= 0 ? opts_.plan.compute_threads
                                      : default_compute_threads(threads_),
      opts_.plan.topo);
  team_cpus_ = opts_.pin_threads ? roles.cpu : std::vector<int>{};
  team_ = parallel::TeamPool::global().acquire(threads_, team_cpus_);

  if (opts_.cache) {
    cache_ = opts_.cache;
  } else {
    owned_cache_ = std::make_unique<tune::PlanCache>();
    cache_ = owned_cache_.get();
  }
  {
    // The dispatcher is not running yet, but paused_ is GUARDED_BY and
    // the annotation does not know that — take the lock for the analysis
    // (uncontended, so it costs one atomic).
    MutexLock lk(pause_mu_);
    paused_ = opts_.start_paused;
  }
  dispatcher_ = std::thread([this] { dispatch_loop(); });
  if (opts_.watchdog) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

BatchExecutor::~BatchExecutor() { shutdown(); }

std::future<ExecReport> BatchExecutor::submit(Request req) {
  Job job;
  job.enqueue_ns = obs::now_ns();
  job.key = key_of(req);
  job.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const Lane lane = req.lane;
  job.req = std::move(req);
  std::future<ExecReport> fut = job.promise.get_future();

  const bool with_deadline = has_deadline(job.req);
  const Clock::time_point deadline = job.req.deadline;
  std::promise<ExecReport>* promise = &job.promise;
  if (with_deadline && Clock::now() >= deadline) {
    // A deadline already behind us rejects immediately (kTimeout — the
    // request can never start in time).
    BWFFT_OBS_COUNT(ExecTimeout, 1);
    {
      MutexLock lk(stats_mu_);
      ++stats_.timed_out;
    }
    promise->set_value(
        rejected_report(ErrorCode::kTimeout, "deadline expired on submit"));
    return fut;
  }
  // Tenant quota before the queue: a tenant over its token budget is
  // bounced without occupying a slot others could use.
  Status admit = admission_.admit(job.req.tenant, job.enqueue_ns);
  if (!admit.ok()) {
    BWFFT_OBS_COUNT(ExecQuotaExceeded, 1);
    {
      MutexLock lk(stats_mu_);
      ++stats_.quota_rejected;
    }
    promise->set_value(rejected_report(admit.code(), admit.message()));
    return fut;
  }
  // Backpressure: reject immediately on a full queue, or — with a
  // deadline — wait for space until that deadline. The typed PushResult
  // decides the rejection message under the queue lock, so a close
  // racing the wait reports the shutdown, not a spurious "full".
  const PushResult pushed =
      with_deadline ? queue_.push_until(lane, std::move(job), deadline)
                    : queue_.try_push(lane, std::move(job));
  if (pushed != PushResult::kAccepted) {
    // The job is moved only on acceptance; the promise here is still
    // ours to fulfil.
    BWFFT_OBS_COUNT(ExecReject, 1);
    {
      MutexLock lk(stats_mu_);
      ++stats_.rejected_full;
    }
    promise->set_value(rejected_report(
        ErrorCode::kQueueFull, pushed == PushResult::kClosed
                                   ? "executor shut down"
                                   : "submission queue full"));
    return fut;
  }
  BWFFT_OBS_COUNT(ExecSubmit, 1);
  {
    MutexLock lk(stats_mu_);
    ++stats_.submitted;
    ++stats_.submitted_by_lane[lane_idx(lane)];
    stats_.peak_queue_depth =
        std::max(stats_.peak_queue_depth, queue_.size());
  }
  return fut;
}

Status BatchExecutor::execute_many(std::vector<Request> reqs,
                                   std::vector<ExecReport>* reports) {
  std::vector<std::future<ExecReport>> futures;
  futures.reserve(reqs.size());
  for (Request& r : reqs) {
    if (!has_deadline(r)) {
      // Blocking semantics: wait for queue space rather than bouncing.
      Job job;
      job.enqueue_ns = obs::now_ns();
      job.key = key_of(r);
      job.seq = seq_.fetch_add(1, std::memory_order_relaxed);
      const Lane lane = r.lane;
      job.req = std::move(r);
      futures.push_back(job.promise.get_future());
      std::promise<ExecReport>* promise = &job.promise;
      Status admit = admission_.admit(job.req.tenant, job.enqueue_ns);
      if (!admit.ok()) {
        BWFFT_OBS_COUNT(ExecQuotaExceeded, 1);
        {
          MutexLock lk(stats_mu_);
          ++stats_.quota_rejected;
        }
        promise->set_value(rejected_report(admit.code(), admit.message()));
      } else if (queue_.push_wait(lane, std::move(job)) !=
                 PushResult::kAccepted) {
        promise->set_value(
            rejected_report(ErrorCode::kQueueFull, "executor shut down"));
      } else {
        BWFFT_OBS_COUNT(ExecSubmit, 1);
        MutexLock lk(stats_mu_);
        ++stats_.submitted;
        ++stats_.submitted_by_lane[lane_idx(lane)];
        stats_.peak_queue_depth =
            std::max(stats_.peak_queue_depth, queue_.size());
      }
    } else {
      futures.push_back(submit(std::move(r)));
    }
  }
  Status first;
  if (reports) reports->resize(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ExecReport rep = futures[i].get();
    if (first.ok() && !rep.status.ok()) first = rep.status;
    if (reports) (*reports)[i] = std::move(rep);
  }
  return first;
}

void BatchExecutor::pause() {
  MutexLock lk(pause_mu_);
  paused_ = true;
}

void BatchExecutor::resume() {
  {
    MutexLock lk(pause_mu_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void BatchExecutor::shutdown() {
  {
    MutexLock lk(pause_mu_);
    if (stopping_) {
      // Second caller (or the destructor after an explicit shutdown):
      // nothing to do once the threads are joined.
      if (!dispatcher_.joinable() && !watchdog_.joinable()) return;
    }
    stopping_ = true;
    paused_ = false;
  }
  pause_cv_.notify_all();
  queue_.close();  // pop() drains the backlog, then returns nullopt
  if (dispatcher_.joinable()) dispatcher_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void BatchExecutor::check_health() {
  BWFFT_OBS_SCOPE(obs_scan, "exec.watchdog", 'X', -1);
  const std::uint64_t now = obs::now_ns();

  // Stuck-batch heartbeat: the dispatcher stamps batch_start_ns_ around
  // every run_batch. One flag per batch (the exchange keeps the edge).
  const std::uint64_t start =
      batch_start_ns_.load(std::memory_order_relaxed);
  if (start != 0 && now - start >= to_ns(opts_.slow_batch_after) &&
      last_slow_flag_ns_.exchange(start, std::memory_order_relaxed) !=
          start) {
    BWFFT_OBS_COUNT(ExecSlowBatch, 1);
    MutexLock lk(stats_mu_);
    ++stats_.slow_batches;
  }

  MutexLock lk(stats_mu_);
  ++stats_.watchdog_scans;
  if (baseline_p99_ns_ == 0) {
    // Establish the drift baseline once enough completions exist to make
    // the p99 meaningful.
    if (stats_.end_to_end.count >= 32) {
      baseline_p99_ns_ = stats_.end_to_end.quantile_ns(0.99);
    }
  } else {
    const bool drift = latency_drift(stats_.end_to_end, baseline_p99_ns_,
                                     opts_.drift_factor);
    if (drift && !in_drift_) ++stats_.latency_drift_events;
    in_drift_ = drift;
  }
}

void BatchExecutor::watchdog_loop() {
  for (;;) {
    {
      MutexLock lk(pause_mu_);
      if (stopping_) return;
      // pause_cv_ doubles as the shutdown signal; a resume() wake-up
      // just runs one extra scan.
      pause_cv_.wait_until(pause_mu_,
                           Clock::now() + opts_.watchdog_interval);
      if (stopping_) return;
    }
    check_health();
  }
}

ExecStats BatchExecutor::stats() const {
  MutexLock lk(stats_mu_);
  ExecStats s = stats_;
  s.queue_depth = queue_.size();
  return s;
}

bool BatchExecutor::maybe_shed(Job& job, std::uint64_t now_ns) {
  bool shed = false;
  if (job.req.lane == Lane::kBatch) {
    // CoDel watches the batch lane's sojourn time only: interactive
    // requests are protected by drain priority + the capacity reserve,
    // and shedding them would defeat that protection.
    shed = codel_.should_shed(now_ns, now_ns - job.enqueue_ns);
  }
  if (BWFFT_FAULT_POINT(fault::kSiteExecShed)) shed = true;
  if (!shed) return false;
  BWFFT_OBS_COUNT(ExecShed, 1);
  {
    MutexLock lk(stats_mu_);
    ++stats_.shed;
  }
  finish(job,
         rejected_report(ErrorCode::kOverloaded,
                         "shed by admission control (standing queue delay)"),
         obs::now_ns());
  return true;
}

void BatchExecutor::dispatch_loop() {
  std::uint64_t batch_seq = 0;
  for (;;) {
    {
      MutexLock lk(pause_mu_);
      while (paused_ && !stopping_) pause_cv_.wait(pause_mu_);
    }
    std::optional<Job> first = queue_.pop();
    if (!first) return;  // closed and drained

    // Retry pacing: honour the lead job's backoff gate before starting
    // the sweep (best effort for coalesced followers). Shutdown
    // interrupts the wait and the drain proceeds immediately.
    if (first->not_before.time_since_epoch().count() != 0) {
      MutexLock lk(pause_mu_);
      while (!stopping_ && Clock::now() < first->not_before) {
        pause_cv_.wait_until(pause_mu_, first->not_before);
      }
    }

    // Coalesce: opportunistically drain up to max_batch-1 followers, then
    // group same-shape requests so each group runs its cached plan
    // back-to-back (one plan lookup, warm twiddles, warm team). Shedding
    // happens here, at dequeue — CoDel controls the standing delay the
    // popped request actually experienced.
    std::vector<Job> jobs;
    if (!maybe_shed(*first, obs::now_ns())) jobs.push_back(std::move(*first));
    while (jobs.size() < opts_.max_batch) {
      std::optional<Job> next = queue_.try_pop();
      if (!next) break;
      if (!maybe_shed(*next, obs::now_ns())) jobs.push_back(std::move(*next));
    }
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const Job& a, const Job& b) { return a.key < b.key; });

    std::size_t lo = 0;
    while (lo < jobs.size()) {
      std::size_t hi = lo + 1;
      while (hi < jobs.size() && jobs[hi].key == jobs[lo].key) ++hi;
      std::vector<Job> group(std::make_move_iterator(jobs.begin() + lo),
                             std::make_move_iterator(jobs.begin() + hi));
      {
        BWFFT_OBS_SCOPE(obs_batch, "exec.batch", 'X', ++batch_seq);
        run_batch(group);
      }
      lo = hi;
    }
  }
}

void BatchExecutor::run_batch(std::vector<Job>& batch) {
  BWFFT_OBS_COUNT(ExecBatch, 1);
  const std::uint64_t batch_start = obs::now_ns();
  batch_start_ns_.store(batch_start, std::memory_order_relaxed);
  // exec.slow_batch=<ms>: synthetically age this batch and scan inline,
  // so the heartbeat path is deterministic under test — no real stall,
  // no sleeps.
  std::int64_t age_ms = 0;
  if (BWFFT_FAULT_VALUE(fault::kSiteExecSlowBatch, -1, &age_ms)) {
    batch_start_ns_.store(
        batch_start - static_cast<std::uint64_t>(age_ms) * 1000000ull,
        std::memory_order_relaxed);
    check_health();
  }
  {
    MutexLock lk(stats_mu_);
    ++stats_.batches;
    stats_.batched_requests += batch.size();
    stats_.max_batch_occupancy =
        std::max(stats_.max_batch_occupancy, batch.size());
  }

  // One plan for the whole group, under the key's current quarantine
  // generation. Plan construction already runs the recovering builder
  // inside CachedPlan; if even that fails, the group fails — and the
  // dispatcher moves on to the next batch, which is the degradation the
  // service promises (a bad shape cannot take the process down).
  PlanHealth& health = plan_health_[batch.front().key];
  std::shared_ptr<tune::CachedPlan> plan;
  Status build_status;
  try {
    plan = cache_->acquire(batch.front().req.dims, batch.front().req.dir,
                           plan_options_for(health.generation),
                           variant_of(health.generation));
  } catch (const Error& e) {
    build_status = Status(e.code(), e.what());
  } catch (const std::exception& e) {
    build_status = Status(ErrorCode::kInternal, e.what());
  }

  const std::uint64_t integrity_stride =
      opts_.integrity_fraction > 0.0
          ? std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       std::llround(1.0 / opts_.integrity_fraction)))
          : 0;

  for (Job& job : batch) {
    const std::uint64_t start_ns = obs::now_ns();
    const std::uint64_t waited = start_ns - job.enqueue_ns;
    BWFFT_OBS_COUNT(ExecQueueNs, waited);
    {
      MutexLock lk(stats_mu_);
      stats_.queue_wait.add(waited);
      stats_.lane_queue_wait[lane_idx(job.req.lane)].add(waited);
    }
    if (deadline_passed(job.req)) {
      BWFFT_OBS_COUNT(ExecTimeout, 1);
      {
        MutexLock lk(stats_mu_);
        ++stats_.timed_out;
      }
      finish(job,
             rejected_report(ErrorCode::kTimeout,
                             "deadline expired before execution"),
             obs::now_ns());
      continue;
    }
    if (!plan) {
      finish(job, rejected_report(build_status.code(), build_status.message()),
             obs::now_ns());
      continue;
    }

    // The integrity sample is decided before execution: the input energy
    // must be read now — engines may clobber `in` (DESTROY_INPUT).
    bool check_output = false;
    double in_energy = 0.0;
    if (integrity_stride != 0 && (++integrity_seq_ % integrity_stride) == 0) {
      check_output = true;
      in_energy = energy_of(job.req.in, plan->total_elems());
    }

    ExecReport rep;
    if (BWFFT_FAULT_POINT(fault::kSitePlanPoison)) {
      // Poisoned plan: fail as a transient stall WITHOUT executing, so
      // the caller's input is untouched and a retry is bit-exact.
      rep.status =
          Status(ErrorCode::kStall, "injected plan poison (exec)");
    } else {
      BWFFT_OBS_SCOPE(obs_req, "exec.request", 'X', plan->total_elems());
      rep.status = plan->try_execute(job.req.in, job.req.out, &rep);
    }

    if (rep.status.ok() && BWFFT_FAULT_POINT(fault::kSiteResultCorrupt)) {
      // Silent corruption: perturb the DC bin by a magnitude the energy
      // check cannot miss. Only the integrity sampler can catch this.
      job.req.out[0] +=
          cplx(1e3 * (std::abs(job.req.out[0]) + 1.0), 0.0);
    }

    if (rep.status.ok() && check_output) {
      BWFFT_OBS_COUNT(ExecIntegrityCheck, 1);
      {
        MutexLock lk(stats_mu_);
        ++stats_.integrity_checked;
      }
      BWFFT_OBS_SCOPE(obs_chk, "exec.integrity", 'X', plan->total_elems());
      Status verdict = integrity_check(job, in_energy, plan->options());
      if (!verdict.ok()) {
        BWFFT_OBS_COUNT(ExecDataCorrupt, 1);
        {
          MutexLock lk(stats_mu_);
          ++stats_.integrity_failed;
        }
        rep.status = verdict;
      }
    }

    if (rep.status.ok()) {
      health.consecutive_failures = 0;
      finish(job, rep, obs::now_ns());
      continue;
    }

    // Failure: quarantine bookkeeping first, then retry or surface.
    const ErrorCode code = rep.status.code();
    if (!is_rejection(code)) ++health.consecutive_failures;
    if (code == ErrorCode::kDataCorrupt ||
        health.consecutive_failures >= opts_.quarantine_after) {
      quarantine_plan(job, health);
    }
    const bool transient =
        code == ErrorCode::kStall || code == ErrorCode::kWorkerLost;
    if (transient && job.attempt < job.req.retry.max_attempts) {
      const std::chrono::nanoseconds backoff =
          retry_backoff(job.req.retry, job.attempt + 1, job.seq);
      ++job.attempt;
      job.not_before = Clock::now() + backoff;
      const Lane lane = job.req.lane;
      BWFFT_OBS_COUNT(ExecRetry, 1);
      fault::note_retry();
      {
        MutexLock lk(stats_mu_);
        ++stats_.retried;
      }
      if (queue_.requeue(lane, std::move(job))) continue;
      // Closed: the retry cannot be delivered (requeue moves only on
      // acceptance) — surface the failure instead of losing the future.
      finish(job, rep, obs::now_ns());
      continue;
    }
    finish(job, rep, obs::now_ns());
  }
  batch_start_ns_.store(0, std::memory_order_relaxed);
}

Status BatchExecutor::integrity_check(const Job& job, double in_energy,
                                      const FftOptions& resolved) const {
  // Parseval: for the unnormalized DFT, sum|out|^2 = N * sum|in|^2 (both
  // directions); the 1/N-normalized inverse lands at sum|in|^2 / N.
  idx_t total = 1;
  for (idx_t d : job.req.dims) total *= d;
  const double n = static_cast<double>(total);
  const double scale =
      (job.req.dir == Direction::Inverse && resolved.normalize_inverse)
          ? 1.0 / n
          : n;
  const double want = in_energy * scale;
  const double got = energy_of(job.req.out, total);
  // 1e-6 relative is orders looser than double-precision FFT rounding
  // (~1e-12 for the sizes served here) and orders tighter than any real
  // corruption — a robust separator, not a tuned threshold.
  const double tol = 1e-6 * (want > 1.0 ? want : 1.0);
  if (std::abs(got - want) <= tol) return Status::Ok();
  return Status(ErrorCode::kDataCorrupt,
                "Parseval energy mismatch: output " + std::to_string(got) +
                    " vs expected " + std::to_string(want));
}

void BatchExecutor::quarantine_plan(const Job& job, PlanHealth& health) {
  // Evict the poisoned generation; the next acquire of this key rebuilds
  // under the bumped variant tag at TuneLevel::Estimate. Callers still
  // holding the evicted plan keep it alive (shared_ptr), they just stop
  // getting it from the cache.
  cache_->erase(job.req.dims, job.req.dir,
                plan_options_for(health.generation),
                variant_of(health.generation));
  ++health.generation;
  health.consecutive_failures = 0;
  BWFFT_OBS_COUNT(ExecQuarantine, 1);
  fault::note_degrade("exec: plan quarantined, rebuilt at estimate");
  {
    MutexLock lk(stats_mu_);
    ++stats_.quarantined;
  }
}

void BatchExecutor::finish(Job& job, const ExecReport& rep,
                           std::uint64_t end_ns) {
  {
    MutexLock lk(stats_mu_);
    stats_.end_to_end.add(end_ns - job.enqueue_ns);
    if (rep.status.ok()) {
      ++stats_.completed;
      ++stats_.completed_by_lane[lane_idx(job.req.lane)];
    } else if (!is_rejection(rep.status.code())) {
      ++stats_.failed;
    }
    if (stats_.completion_order.size() < kCompletionOrderCap) {
      stats_.completion_order.push_back(static_cast<int>(job.req.lane));
    }
  }
  if (rep.status.ok()) BWFFT_OBS_COUNT(ExecComplete, 1);
  job.promise.set_value(rep);
}

}  // namespace bwfft::exec
