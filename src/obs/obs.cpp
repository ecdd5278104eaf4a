#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <mutex>

#include "fault/fault.h"

namespace bwfft::obs {

namespace {

constexpr std::size_t kRingCap = std::size_t{1} << 14;  // slices per thread

struct ThreadLog;

/// Global registry of per-thread logs. Leaked on purpose: worker threads
/// may still be draining their thread-locals while process statics are
/// destroyed, so the registry must never die first.
struct Registry {
  std::mutex mu;
  std::vector<ThreadLog*> live;
  std::uint64_t retired_counters[kCounterCount] = {};
  std::vector<Slice> retired_slices;
  std::uint64_t dropped = 0;
  int next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

std::atomic<bool> g_trace{false};

/// Per-thread accumulation block. Counter adds and slice pushes touch
/// only this (no locks); the registry mutex guards the live list and the
/// merge on thread exit.
struct ThreadLog {
  std::uint64_t counters[kCounterCount] = {};
  std::vector<Slice> ring;
  std::uint64_t pushed = 0;  // total pushes; ring index = pushed % cap
  int tid = -1;

  ThreadLog() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    tid = r.next_tid++;
    r.live.push_back(this);
  }

  ~ThreadLog() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (int i = 0; i < kCounterCount; ++i) {
      r.retired_counters[i] += counters[i];
    }
    append_slices_locked(r.retired_slices, r.dropped);
    r.live.erase(std::remove(r.live.begin(), r.live.end(), this),
                 r.live.end());
  }

  void push(const Slice& s) {
    if (ring.empty()) ring.resize(kRingCap);
    ring[static_cast<std::size_t>(pushed % kRingCap)] = s;
    ++pushed;
  }

  /// Copy recorded slices (oldest first) into `out`; counts overwritten
  /// entries into `dropped`. Caller holds the registry mutex.
  void append_slices_locked(std::vector<Slice>& out,
                            std::uint64_t& dropped) const {
    if (pushed == 0) return;
    if (pushed > kRingCap) dropped += pushed - kRingCap;
    const std::uint64_t kept = std::min<std::uint64_t>(pushed, kRingCap);
    for (std::uint64_t i = pushed - kept; i < pushed; ++i) {
      out.push_back(ring[static_cast<std::size_t>(i % kRingCap)]);
    }
  }

  void clear_slices() {
    pushed = 0;
  }
};

ThreadLog& tls() {
  thread_local ThreadLog log;
  return log;
}

std::uint64_t epoch_offset() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// JSON string escaping for slice names (conservative: names are ASCII
/// literals, but keep the exporter safe for arbitrary input).
void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

const char* phase_track(char phase) {
  switch (phase) {
    case 'L': return "load";
    case 'C': return "compute";
    case 'S': return "store";
    case 'B': return "barrier";
    case 'G': return "stage";
    default: return "other";
  }
}

}  // namespace

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::BytesLoaded: return "bytes_loaded";
    case Counter::BytesStored: return "bytes_stored";
    case Counter::NtStores: return "nt_stores";
    case Counter::BarrierWaitNs: return "barrier_wait_ns";
    case Counter::LoadBusyNs: return "load_busy_ns";
    case Counter::ComputeBusyNs: return "compute_busy_ns";
    case Counter::StoreBusyNs: return "store_busy_ns";
    case Counter::PlanCacheHit: return "plan_cache_hit";
    case Counter::PlanCacheMiss: return "plan_cache_miss";
    case Counter::TuneMeasure: return "tune_measure";
    case Counter::FaultInjected: return "fault_injected";
    case Counter::FaultRetry: return "fault_retry";
    case Counter::FaultDegrade: return "fault_degrade";
    case Counter::TeamSpawn: return "team_spawn";
    case Counter::TeamReuse: return "team_reuse";
    case Counter::ExecSubmit: return "exec_submit";
    case Counter::ExecReject: return "exec_reject";
    case Counter::ExecTimeout: return "exec_timeout";
    case Counter::ExecComplete: return "exec_complete";
    case Counter::ExecBatch: return "exec_batch";
    case Counter::ExecQueueNs: return "exec_queue_ns";
    case Counter::BatchScalar: return "batch_scalar";
    case Counter::BatchAvx2: return "batch_avx2";
    case Counter::BatchAvx512: return "batch_avx512";
    case Counter::ExecShed: return "exec_shed";
    case Counter::ExecQuotaExceeded: return "exec_quota_exceeded";
    case Counter::ExecRetry: return "exec_retry";
    case Counter::ExecQuarantine: return "exec_quarantine";
    case Counter::ExecIntegrityCheck: return "exec_integrity_check";
    case Counter::ExecDataCorrupt: return "exec_data_corrupt";
    case Counter::ExecSlowBatch: return "exec_slow_batch";
  }
  return "?";
}

void counter_add(Counter c, std::uint64_t delta) {
  tls().counters[static_cast<int>(c)] += delta;
}

std::uint64_t counter_total(Counter c) {
  return counters()[c];
}

CounterSnapshot counters() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  CounterSnapshot snap;
  for (int i = 0; i < kCounterCount; ++i) snap.value[i] = r.retired_counters[i];
  for (const ThreadLog* log : r.live) {
    for (int i = 0; i < kCounterCount; ++i) snap.value[i] += log->counters[i];
  }
  // The fault harness keeps its own tallies (it sits below this layer in
  // the dependency graph); mirror them into the snapshot here.
  snap.value[static_cast<int>(Counter::FaultInjected)] =
      fault::injected_count();
  snap.value[static_cast<int>(Counter::FaultRetry)] = fault::retried_count();
  snap.value[static_cast<int>(Counter::FaultDegrade)] =
      fault::degraded_count();
  return snap;
}

UncountedScope::UncountedScope() {
  std::copy(std::begin(tls().counters), std::end(tls().counters), start_);
}

UncountedScope::~UncountedScope() {
  std::copy(std::begin(start_), std::end(start_), tls().counters);
}

void reset_counters() {
  fault::reset_stats();
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& v : r.retired_counters) v = 0;
  for (ThreadLog* log : r.live) {
    for (auto& v : log->counters) v = 0;
  }
}

std::uint64_t now_ns() { return epoch_offset(); }

void start_trace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.retired_slices.clear();
  r.dropped = 0;
  for (ThreadLog* log : r.live) log->clear_slices();
  g_trace.store(true, std::memory_order_release);
}

void stop_trace() { g_trace.store(false, std::memory_order_release); }

bool trace_active() { return g_trace.load(std::memory_order_relaxed); }

void record_slice(const char* name, char phase, std::uint64_t t0_ns,
                  std::uint64_t t1_ns, std::int64_t arg) {
  if (!trace_active()) return;
  ThreadLog& log = tls();
  log.push(Slice{name, phase, t0_ns, t1_ns, arg, log.tid});
}

std::vector<Slice> drain_trace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::vector<Slice> out = r.retired_slices;
  std::uint64_t dropped = 0;
  for (const ThreadLog* log : r.live) {
    log->append_slices_locked(out, dropped);
  }
  std::sort(out.begin(), out.end(),
            [](const Slice& a, const Slice& b) { return a.t0_ns < b.t0_ns; });
  return out;
}

std::uint64_t dropped_slices() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t dropped = r.dropped;
  for (const ThreadLog* log : r.live) {
    if (log->pushed > kRingCap) dropped += log->pushed - kRingCap;
  }
  return dropped;
}

std::string chrome_trace_json(const std::vector<Slice>& slices) {
  std::string out;
  out.reserve(slices.size() * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Slice& s : slices) {
    if (!first) out += ',';
    first = false;
    // Timestamps and durations are microseconds (doubles) per the trace
    // event format; phase 'X' = complete event.
    char buf[160];
    out += "{\"name\":\"";
    append_escaped(out, s.name);
    out += "\",\"cat\":\"";
    out += phase_track(s.phase);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,"
                  "\"tid\":%d,\"args\":{\"iter\":%" PRId64 "}}",
                  static_cast<double>(s.t0_ns) / 1e3,
                  static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, s.tid,
                  static_cast<std::int64_t>(s.arg));
    out += buf;
  }
  out += "]}";
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Slice>& slices) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = chrome_trace_json(slices);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == json.size() && closed;
}

std::vector<StageRoofline> roofline_from_trace(
    const std::vector<Slice>& slices, double stage_bytes,
    double bandwidth_gbs) {
  std::vector<StageRoofline> out;
  const double io_secs =
      bandwidth_gbs > 0 ? stage_bytes / (bandwidth_gbs * 1e9) : 0.0;
  for (const Slice& s : slices) {
    if (s.phase != 'G') continue;
    StageRoofline r;
    r.name = s.name;
    r.seconds = static_cast<double>(s.t1_ns - s.t0_ns) / 1e9;
    r.io_bound_seconds = io_secs;
    r.pct_of_peak = r.seconds > 0 ? 100.0 * io_secs / r.seconds : 0.0;
    out.push_back(std::move(r));
  }
  return out;
}

void print_roofline(const std::vector<StageRoofline>& stages,
                    double bandwidth_gbs) {
  std::printf("roofline (STREAM %.1f GB/s):\n", bandwidth_gbs);
  for (const StageRoofline& s : stages) {
    std::printf("  %-24s %8.3f ms  io-bound %8.3f ms  %5.1f%% of peak\n",
                s.name.c_str(), s.seconds * 1e3, s.io_bound_seconds * 1e3,
                s.pct_of_peak);
  }
}

void print_counters(const CounterSnapshot& snap) {
  std::printf("counters:\n");
  for (int i = 0; i < kCounterCount; ++i) {
    if (snap.value[i] == 0) continue;
    std::printf("  %-18s %" PRIu64 "\n",
                counter_name(static_cast<Counter>(i)), snap.value[i]);
  }
}

}  // namespace bwfft::obs
