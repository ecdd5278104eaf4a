// The serve stream: an open loop of small in-LLC transforms through one
// exec::BatchExecutor with a warm plan cache. One generator thread sends
// on a seeded exponential schedule regardless of completions; a collector
// thread timestamps completions, spot-checks outputs and recycles the
// request buffers. Every traced run uses it to measure the exec, serve
// and plan-cache layers.
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "bench.h"
#include "common/aligned.h"
#include "common/topology.h"
#include "exec/batch_executor.h"
#include "obs/obs.h"

namespace perfbench {

namespace {

constexpr double kLimitMs = 25.0;  // goodput latency limit per request
constexpr int kSlotsPerShape = 16;
constexpr std::size_t kParsevalEvery = 4;
constexpr double kWarmSeconds = 2.0;
constexpr double kProbeSeconds = 6.0;  // ~1200 requests: 10 beyond p99

/// 16^3, 32^3, 64^3, 64^2, 128^2, 256^2 and 4096-point 1D, each forward
/// then inverse.
std::vector<Shape> serve_keys() {
  std::vector<Shape> out;
  const std::vector<std::vector<idx_t>> dims = {
      {16, 16, 16}, {32, 32, 32}, {64, 64, 64}, {64, 64},
      {128, 128},   {256, 256},   {4096}};
  for (const auto& d : dims) {
    out.push_back({d, bwfft::Direction::Forward});
    out.push_back({d, bwfft::Direction::Inverse});
  }
  return out;
}

long double energy_of(const cplx* v, idx_t n) {
  long double e = 0.0L;
  for (idx_t i = 0; i < n; ++i) e += std::norm(v[i]);
  return e;
}

/// What one stream window produced: the ops, plus the executor and plan
/// cache counters accumulated over the window.
struct StreamResult {
  std::vector<OpRecord> ops;
  double span_s = 0.0;
  std::uint64_t misses = 0;
  std::array<std::uint64_t, 64> queue_wait{};
  std::uint64_t batches = 0, batched = 0, shed = 0, rejected = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};

/// Executor, seeded per-shape inputs and a pool of request buffers per
/// shape (a request's input is clobbered, so each in-flight request owns
/// a slot until its completion is collected and its input restored).
class ServeRig {
 public:
  explicit ServeRig(std::uint64_t seed)
      : keys_(serve_keys()),
        team_(bwfft::host_topology().total_threads()) {
    // keys_ lists each dims forward then inverse; slots are per dims.
    for (std::size_t d = 0; d < keys_.size(); d += 2) {
      const idx_t n = keys_[d].total();
      bwfft::cvec src(static_cast<std::size_t>(n));
      fill_input(team_, src.data(), n, mix_seed(seed, 10 + d));
      energy_.push_back(energy_of(src.data(), n));
      std::vector<Slot> slots(kSlotsPerShape);
      std::vector<int> free;
      for (int s = 0; s < kSlotsPerShape; ++s) {
        slots[static_cast<std::size_t>(s)].in = src;
        slots[static_cast<std::size_t>(s)].out.resize(src.size());
        free.push_back(s);
      }
      pristine_.push_back(std::move(src));
      slots_.push_back(std::move(slots));
      free_.push_back(std::move(free));
    }
  }

  /// Build the executor and warm its plan cache with one request per
  /// shape and direction.
  void setup() {
    exec_ = std::make_unique<bwfft::exec::BatchExecutor>();
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      Slot& slot = slots_[k / 2][0];
      exec_->submit(request(k, slot)).get();
      slot.in = pristine_[k / 2];
    }
  }

  StreamResult stream(double seconds, double rate, std::uint64_t seed) {
    const bwfft::exec::ExecStats s0 = exec_->stats();
    const bwfft::tune::PlanCache::Stats c0 = exec_->cache().stats();

    struct Pending {
      std::future<bwfft::ExecReport> fut;
      std::size_t key = 0;
      int slot = 0;
      OpRecord rec;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::list<Pending> pending;  // appended by the generator only
    bool done = false;
    StreamResult res;
    std::vector<OpRecord> refused;
    std::size_t collected = 0;

    // Completions are timestamped when seen: the collector blocks on the
    // oldest request, then sweeps every other ready one, so a request the
    // dispatcher reordered ahead of the oldest is stamped no later than
    // the sweep that follows its completion.
    auto finish = [&](Pending& p, double t) {
      const bwfft::ExecReport rep = p.fut.get();
      OpRecord rec = p.rec;
      rec.end = t;
      rec.ok = rep.status.ok();
      const std::size_t d = p.key / 2;
      Slot& slot = slots_[d][static_cast<std::size_t>(p.slot)];
      const idx_t n = keys_[p.key].total();
      if (rec.ok && collected++ % kParsevalEvery == 0) {
        const long double want = static_cast<long double>(n) * energy_[d];
        const long double got = energy_of(slot.out.data(), n);
        if (std::fabs(got - want) > tolerance(n) * want) {
          rec.ok = false;
          ++res.misses;
          std::fprintf(stderr, "Parseval miss on %s\n",
                       keys_[p.key].name().c_str());
        }
      }
      slot.in = pristine_[d];
      {
        std::lock_guard<std::mutex> lk(slot_mu_);
        free_[d].push_back(p.slot);
      }
      res.ops.push_back(rec);
    };
    std::thread collector([&] {
      for (;;) {
        Pending* oldest = nullptr;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return done || !pending.empty(); });
          if (pending.empty()) return;
          oldest = &pending.front();
        }
        oldest->fut.wait();
        const double t = now_s();
        std::vector<Pending> ready;
        {
          std::lock_guard<std::mutex> lk(mu);
          for (auto it = pending.begin(); it != pending.end();) {
            if (it->fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
              ready.push_back(std::move(*it));
              it = pending.erase(it);
            } else {
              ++it;
            }
          }
        }
        for (Pending& p : ready) finish(p, t);
      }
    });

    // Keys go out in seeded permutations of the whole key set, so every
    // run offers the same mix and only the order and timing vary.
    auto generate = [&] {
      std::mt19937_64 rng(seed);
      std::exponential_distribution<double> gap(rate);
      std::vector<std::size_t> order(keys_.size());
      for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
      std::size_t sent = 0;
      const double t0 = now_s() + 0.01;
      for (double due = t0; due < t0 + seconds; due += gap(rng)) {
        if (sent % order.size() == 0) {
          std::shuffle(order.begin(), order.end(), rng);
        }
        const std::size_t key = order[sent++ % order.size()];
        const double wait = due - now_s();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        OpRecord rec;
        rec.shape = static_cast<int>(key);
        rec.due = due;
        rec.start = now_s();
        rec.flops = pseudo_flops(static_cast<double>(keys_[key].total()));
        int slot = -1;
        {
          std::lock_guard<std::mutex> lk(slot_mu_);
          auto& free = free_[key / 2];
          if (!free.empty()) {
            slot = free.back();
            free.pop_back();
          }
        }
        if (slot < 0) {  // every buffer of this shape in flight: refused
          rec.end = rec.start;
          refused.push_back(rec);
          continue;
        }
        Pending p;
        p.fut = exec_->submit(
            request(key, slots_[key / 2][static_cast<std::size_t>(slot)]));
        p.key = key;
        p.slot = slot;
        p.rec = rec;
        {
          std::lock_guard<std::mutex> lk(mu);
          pending.push_back(std::move(p));
        }
        cv.notify_one();
      }
    };
    auto stop_collector = [&] {
      {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
      }
      cv.notify_one();
      collector.join();
    };
    try {
      generate();
    } catch (...) {
      stop_collector();  // every submitted future still completes
      throw;
    }
    stop_collector();

    res.ops.insert(res.ops.end(), refused.begin(), refused.end());
    res.span_s = seconds;
    const bwfft::exec::ExecStats s1 = exec_->stats();
    const bwfft::tune::PlanCache::Stats c1 = exec_->cache().stats();
    for (std::size_t b = 0; b < res.queue_wait.size(); ++b) {
      res.queue_wait[b] = s1.queue_wait.bucket[b] - s0.queue_wait.bucket[b];
    }
    res.batches = s1.batches - s0.batches;
    res.batched = s1.batched_requests - s0.batched_requests;
    res.shed = s1.shed - s0.shed;
    res.rejected = (s1.rejected_full - s0.rejected_full) +
                   (s1.quota_rejected - s0.quota_rejected) +
                   (s1.timed_out - s0.timed_out);
    res.cache_hits = c1.hits - c0.hits;
    res.cache_misses = c1.misses - c0.misses;
    return res;
  }

 private:
  struct Slot {
    bwfft::cvec in, out;
  };

  bwfft::exec::Request request(std::size_t key, Slot& slot) const {
    bwfft::exec::Request req;
    req.dims = keys_[key].dims;
    req.dir = keys_[key].dir;
    req.in = slot.in.data();
    req.out = slot.out.data();
    return req;
  }

  std::vector<Shape> keys_;
  bwfft::ThreadTeam team_;
  std::vector<bwfft::cvec> pristine_;
  std::vector<long double> energy_;
  std::vector<std::vector<Slot>> slots_;
  std::mutex slot_mu_;
  std::vector<std::vector<int>> free_;
  std::unique_ptr<bwfft::exec::BatchExecutor> exec_;
};

void tally(Outcome& o, const StreamResult& r) {
  perfbench::tally(o, r.ops);
  o.check_misses += r.misses;
}

void set_exec_metrics(Metrics& m, const StreamResult& r) {
  const double lookups = static_cast<double>(r.cache_hits + r.cache_misses);
  auto wait_ms = [&](double q) {
    return log2_hist_quantile(r.queue_wait.data(), r.queue_wait.size(), q) *
           1e-6;
  };
  m.set("exec.queue_wait_ms.p50", wait_ms(0.50), "ms");
  m.set("exec.queue_wait_ms.p99", wait_ms(0.99), "ms");
  m.set("exec.batch_occupancy",
        r.batches ? static_cast<double>(r.batched) /
                        static_cast<double>(r.batches)
                  : 0.0,
        "req/batch");
  m.set("exec.shed", static_cast<double>(r.shed), "count");
  m.set("exec.rejected", static_cast<double>(r.rejected), "count");
  const Summary sum = summarize(r.ops, r.span_s, kLimitMs);
  m.set("serve.latency_ms.p90", sum.p90_ms, "ms");
  m.set("serve.latency_ms.p99", sum.p99_ms, "ms");
  m.set("serve.gen_lag_ms.p99", sum.gen_lag_p99_ms, "ms");
  m.set("tune.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(r.cache_hits) / lookups : 0.0,
        "ratio");
  m.set("tune.cache_lookups", lookups, "count");
}

}  // namespace

void probe_serve(Metrics& m, Outcome& o, std::uint64_t seed) {
  ServeRig rig(seed);
  rig.setup();
  tally(o, rig.stream(kWarmSeconds, kServeRateRps, mix_seed(seed, 2)));
  bwfft::obs::start_trace();
  const StreamResult r =
      rig.stream(kProbeSeconds, kServeRateRps, mix_seed(seed, 5));
  bwfft::obs::stop_trace();
  tally(o, r);
  set_exec_metrics(m, r);
}

}  // namespace perfbench
