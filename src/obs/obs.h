// Low-overhead observability layer: counters, scoped timers, trace export.
//
// The paper's entire claim is quantitative (74–92% of the STREAM-derived
// achievable peak, §V), so the runtime needs to show where time and bytes
// go. This module provides three facilities:
//
//   * Monotonic counters — bytes loaded/stored per pipeline stage,
//     non-temporal stores issued, barrier-wait nanoseconds, per-role busy
//     time. Each thread accumulates into a thread-local block (no atomics
//     on the hot path); blocks are merged under a registry mutex when
//     read, reset, or when the owning thread exits.
//
//   * A ring-buffered slice recorder. When tracing is armed, ScopedSlice
//     records {name, phase, t0, t1, arg, tid} into a fixed per-thread
//     ring (overwriting the oldest entries), again without locks. The
//     slices extend the pipeline's schedule-order TraceEvent stream with
//     wall-clock timestamps.
//
//   * Exporters: a chrome://tracing JSON writer (one track per thread;
//     load/compute/store slices make a Table II schedule visually
//     inspectable in about:tracing / Perfetto) and a roofline report that
//     combines per-stage wall time with the measured STREAM bandwidth to
//     print %-of-achievable-peak per stage.
//
// Instrumentation sites use the BWFFT_OBS_* macros below. With the CMake
// option BWFFT_OBS=OFF the macros expand to nothing, so the hot paths
// compile to the uninstrumented code — no atomics, no timer syscalls.
// With BWFFT_OBS=ON, counter updates cost one thread-local add and slices
// are recorded only while tracing is armed (one relaxed flag load
// otherwise).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bwfft::obs {

// ---------------------------------------------------------------------------
// Counters

enum class Counter : int {
  BytesLoaded = 0,  ///< bytes streamed from source arrays (pipeline loads)
  BytesStored,      ///< bytes scattered to destination arrays (stores)
  NtStores,         ///< non-temporal stores, in 32-byte equivalents
  BarrierWaitNs,    ///< nanoseconds spent waiting at team barriers
  LoadBusyNs,       ///< busy time in pipeline load tasks
  ComputeBusyNs,    ///< busy time in pipeline compute (FFT) tasks
  StoreBusyNs,      ///< busy time in pipeline store tasks
  PlanCacheHit,     ///< tune::PlanCache lookups served from cache
  PlanCacheMiss,    ///< tune::PlanCache lookups that built a new plan
  TuneMeasure,      ///< candidate configs timed by the autotuner
  // The fault_* counters mirror the src/fault harness tallies (merged in
  // at snapshot time, not accumulated thread-locally here).
  FaultInjected,    ///< fault-injection probes that fired
  FaultRetry,       ///< recovery retries (plan rebuilt and re-run)
  FaultDegrade,     ///< graceful degradations (fallback path taken)
  TeamSpawn,        ///< thread teams spawned by the parallel::TeamPool
  TeamReuse,        ///< TeamPool acquires served by an existing team
  ExecSubmit,       ///< requests accepted by a BatchExecutor queue
  ExecReject,       ///< submits rejected (queue-full backpressure)
  ExecTimeout,      ///< requests expired before execution started
  ExecComplete,     ///< requests whose ExecReport was fulfilled
  ExecBatch,        ///< coalesced same-shape batches dispatched
  ExecQueueNs,      ///< total enqueue-to-start wait across requests
  BatchScalar,      ///< batched-codelet dispatches resolved to scalar
  BatchAvx2,        ///< batched-codelet dispatches resolved to AVX2+FMA
  BatchAvx512,      ///< batched-codelet dispatches resolved to AVX-512
  ExecShed,         ///< requests shed by CoDel / exec.shed admission
  ExecQuotaExceeded, ///< submits rejected by a tenant token bucket
  ExecRetry,        ///< transient failures re-queued by the RetryPolicy
  ExecQuarantine,   ///< plans evicted and rebuilt after repeated failure
  ExecIntegrityCheck, ///< output spot-checks performed (Parseval energy)
  ExecDataCorrupt,  ///< spot-checks that failed (kDataCorrupt reports)
  ExecSlowBatch,    ///< watchdog heartbeat flags on a stuck batch
};
inline constexpr int kCounterCount = 31;

/// Stable snake_case name (JSON keys in BENCH_*.json use these).
const char* counter_name(Counter c);

/// Add `delta` to a counter. Thread-local accumulation: never blocks,
/// no atomics. Safe from any thread.
void counter_add(Counter c, std::uint64_t delta);

/// Aggregate value of one counter across all threads (live and exited).
std::uint64_t counter_total(Counter c);

struct CounterSnapshot {
  std::uint64_t value[kCounterCount] = {};
  std::uint64_t operator[](Counter c) const {
    return value[static_cast<int>(c)];
  }
};

/// Aggregate all counters at once.
CounterSnapshot counters();

/// Zero every counter (live thread blocks and the retired accumulator).
/// Call between runs, not while a team is executing.
void reset_counters();

/// While one lives, the counts its thread adds are taken back when it
/// ends: a self-audit that re-runs a stage's work on the calling thread
/// leaves the counters as the measured run alone would.
class UncountedScope {
 public:
  UncountedScope();
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;

 private:
  std::uint64_t start_[kCounterCount];
};

// ---------------------------------------------------------------------------
// Wall clock

/// Nanoseconds since an arbitrary process-local epoch (steady clock).
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Trace recorder

/// Slice phases: 'L' load, 'C' compute, 'S' store, 'B' barrier wait,
/// 'G' whole engine stage, 'X' other.
struct Slice {
  const char* name = "";  ///< static-lifetime label
  char phase = 'X';
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::int64_t arg = -1;  ///< iteration / stage index (-1 = none)
  int tid = -1;           ///< obs-assigned thread id (registration order)
};

/// Arm the recorder; clears previously recorded slices.
void start_trace();
/// Disarm the recorder (recorded slices stay until the next start_trace).
void stop_trace();
bool trace_active();

/// Record one slice (no-op unless tracing is armed). `name` must outlive
/// the trace — pass string literals.
void record_slice(const char* name, char phase, std::uint64_t t0_ns,
                  std::uint64_t t1_ns, std::int64_t arg);

/// All recorded slices from every thread, sorted by start time. Slices
/// beyond each thread's ring capacity are dropped oldest-first;
/// dropped_slices() tells how many.
std::vector<Slice> drain_trace();
std::uint64_t dropped_slices();

/// RAII slice: times its scope, optionally accumulating the duration into
/// a busy counter even when tracing is off. `busy_counter` is
/// static_cast<int>(Counter::...) or kNoCounter.
inline constexpr int kNoCounter = -1;
class ScopedSlice {
 public:
  ScopedSlice(const char* name, char phase, std::int64_t arg = -1,
              int busy_counter = kNoCounter)
      : name_(name), phase_(phase), arg_(arg), busy_(busy_counter),
        active_(busy_counter != kNoCounter || trace_active()) {
    if (active_) t0_ = now_ns();
  }
  ~ScopedSlice() {
    if (!active_) return;
    const std::uint64_t t1 = now_ns();
    if (busy_ != kNoCounter) {
      counter_add(static_cast<Counter>(busy_), t1 - t0_);
    }
    record_slice(name_, phase_, t0_, t1, arg_);
  }
  ScopedSlice(const ScopedSlice&) = delete;
  ScopedSlice& operator=(const ScopedSlice&) = delete;

 private:
  const char* name_;
  char phase_;
  std::int64_t arg_;
  int busy_;
  bool active_;
  std::uint64_t t0_ = 0;
};

// ---------------------------------------------------------------------------
// Exporters

/// chrome://tracing "trace event format" JSON: one complete ('X') event
/// per slice, one track per obs thread id. Loadable in about:tracing and
/// Perfetto.
std::string chrome_trace_json(const std::vector<Slice>& slices);

/// Write chrome_trace_json to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Slice>& slices);

/// Per-stage roofline: wall time of each 'G' slice against the time a
/// perfect streaming implementation would need for one read+write round
/// trip over `stage_bytes` at `bandwidth_gbs`.
struct StageRoofline {
  std::string name;
  double seconds = 0.0;
  double io_bound_seconds = 0.0;
  double pct_of_peak = 0.0;  ///< io_bound_seconds / seconds * 100
};

/// Extract 'G' slices (engine stages) from a trace and rate each against
/// the streaming bound. `stage_bytes` is the per-stage traffic of one
/// read + one write pass over the working set (2 * N * sizeof(cplx)).
std::vector<StageRoofline> roofline_from_trace(
    const std::vector<Slice>& slices, double stage_bytes,
    double bandwidth_gbs);

/// Human-readable roofline table to stdout.
void print_roofline(const std::vector<StageRoofline>& stages,
                    double bandwidth_gbs);

/// Human-readable counter dump to stdout (skips zero counters).
void print_counters(const CounterSnapshot& snap);

}  // namespace bwfft::obs

// ---------------------------------------------------------------------------
// Instrumentation macros — compile to nothing when BWFFT_OBS is off.

#if defined(BWFFT_OBS)
/// Add to a counter: BWFFT_OBS_COUNT(BytesLoaded, n).
#define BWFFT_OBS_COUNT(counter, delta) \
  ::bwfft::obs::counter_add(::bwfft::obs::Counter::counter, \
                            static_cast<std::uint64_t>(delta))
/// Scoped slice that also accumulates its duration into a busy counter.
#define BWFFT_OBS_TASK(var, name, phase, arg, busy_counter)       \
  ::bwfft::obs::ScopedSlice var(                                  \
      (name), (phase), static_cast<std::int64_t>(arg),            \
      static_cast<int>(::bwfft::obs::Counter::busy_counter))
/// Scoped slice recorded only while tracing is armed.
#define BWFFT_OBS_SCOPE(var, name, phase, arg) \
  ::bwfft::obs::ScopedSlice var((name), (phase), \
                                static_cast<std::int64_t>(arg))
#else
#define BWFFT_OBS_COUNT(counter, delta) ((void)0)
#define BWFFT_OBS_TASK(var, name, phase, arg, busy_counter) ((void)0)
#define BWFFT_OBS_SCOPE(var, name, phase, arg) ((void)0)
#endif
