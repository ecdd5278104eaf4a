#include "tune/plan_cache.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "obs/obs.h"
#include "tune/tuner.h"

namespace bwfft::tune {

CachedPlan::CachedPlan(std::vector<idx_t> dims, Direction dir,
                       const FftOptions& requested)
    : dims_(std::move(dims)), dir_(dir), resolved_(requested) {
  // Resolve Auto here rather than inside make_engine so options()
  // reports the concrete configuration that actually runs.
  if (resolved_.engine == EngineKind::Auto) {
    resolved_ = resolve_auto(dims_, dir_, resolved_);
  }
  // Recovering construction: a spawn failure or placed-alloc exhaustion
  // degrades resolved_ (fewer threads, then the reference engine) instead
  // of failing the plan — a shared plan dying on a transient construction
  // failure would fail every waiter at once.
  engine_ = make_engine_recovering(dims_, dir_, resolved_);
  for (idx_t d : dims_) total_ *= d;
}

void CachedPlan::execute(cplx* in, cplx* out) {
  MutexLock lk(exec_mu_);
  engine_->execute(in, out);
}

void CachedPlan::execute_inplace(cplx* data) {
  MutexLock lk(exec_mu_);
  inplace_work_.resize(static_cast<std::size_t>(total_));
  engine_->execute(data, inplace_work_.data());
  inplace_copy_back(data, inplace_work_, resolved_.nontemporal);
}

Status CachedPlan::try_execute(cplx* in, cplx* out, ExecReport* rep) {
  MutexLock lk(exec_mu_);
  return try_execute_recovering(dims_, dir_, resolved_, engine_, in, out,
                                rep);
}

std::size_t CachedPlan::footprint_bytes() const {
  const std::size_t data = static_cast<std::size_t>(total_) * sizeof(cplx);
  return 2 * data + (std::size_t{1} << 20);
}

PlanCache::PlanCache() : PlanCache(Limits()) {}
PlanCache::PlanCache(Limits limits) : limits_(limits) {}

std::string PlanCache::key_of(const std::vector<idx_t>& dims, Direction dir,
                              const FftOptions& opts,
                              const std::string& variant) {
  std::string k;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    k += (i ? "x" : "") + std::to_string(dims[i]);
  }
  // Every option the plan reads, including the ISA and the topology
  // fields make_stage_plan sizes the team, block and claims from.
  const MachineTopology& t = opts.topo;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ":%c:e%d:t%d:c%d:b%lld:mu%lld:f1%lld:nt%d:isa%d:lvl%d:pin%d:"
                "norm%d:topo%dx%dx%d:llc%zu:l2%zu",
                dir == Direction::Forward ? 'f' : 'i',
                static_cast<int>(opts.engine), opts.threads,
                opts.compute_threads,
                static_cast<long long>(opts.block_elems),
                static_cast<long long>(opts.packet_elems),
                static_cast<long long>(opts.factor_n1),
                opts.nontemporal ? 1 : 0, static_cast<int>(opts.isa),
                static_cast<int>(opts.tune_level),
                (opts.pin_threads ? 1 : 0) | (opts.team_pool ? 2 : 0),
                opts.normalize_inverse ? 1 : 0, t.sockets, t.cores_per_socket,
                t.smt_per_core, t.llc_bytes, t.l2_bytes);
  k += buf;
  if (!variant.empty()) k += ":" + variant;
  return k;
}

std::shared_ptr<CachedPlan> PlanCache::acquire(const std::vector<idx_t>& dims,
                                               Direction dir, FftOptions opts,
                                               const std::string& variant) {
  const std::string key = key_of(dims, dir, opts, variant);
  // The build happens outside mu_, so the function is three scoped
  // critical sections (find-or-reserve, record-failure, publish) instead
  // of one unique_lock with unlock/lock gaps — the scoped shape is what
  // the clang thread-safety analysis can follow.
  {
    MutexLock lk(mu_);
    for (;;) {
      auto it = entries_.find(key);
      if (it == entries_.end()) break;  // miss: build below
      Entry& e = it->second;
      if (e.building) {
        // Another caller is constructing this plan; share its result
        // rather than building a duplicate.
        for (;;) {
          auto again = entries_.find(key);
          if (again == entries_.end() || !again->second.building) break;
          cv_.wait(mu_);
        }
        continue;  // re-find: the build may have failed and been erased
      }
      ++stats_.hits;
      BWFFT_OBS_COUNT(PlanCacheHit, 1);
      lru_.erase(e.lru_pos);
      lru_.push_front(key);
      e.lru_pos = lru_.begin();
      return e.plan;
    }

    ++stats_.misses;
    BWFFT_OBS_COUNT(PlanCacheMiss, 1);
    entries_.emplace(key, Entry{});  // placeholder: building
  }

  std::shared_ptr<CachedPlan> plan;
  try {
    plan = std::make_shared<CachedPlan>(dims, dir, opts);
  } catch (...) {
    {
      MutexLock lk(mu_);
      entries_.erase(key);
    }
    cv_.notify_all();
    throw;
  }

  {
    MutexLock lk(mu_);
    Entry& e = entries_[key];
    e.plan = plan;
    e.building = false;
    lru_.push_front(key);
    e.lru_pos = lru_.begin();
    stats_.plans = entries_.size();
    stats_.bytes += plan->footprint_bytes();
    evict_locked();
  }
  cv_.notify_all();
  return plan;
}

bool PlanCache::erase(const std::vector<idx_t>& dims, Direction dir,
                      FftOptions opts, const std::string& variant) {
  const std::string key = key_of(dims, dir, opts, variant);
  MutexLock lk(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.building) return false;
  stats_.bytes -= it->second.plan->footprint_bytes();
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  ++stats_.invalidations;
  stats_.plans = entries_.size();
  return true;
}

void PlanCache::evict_locked() {
  // Walk from the LRU tail; skip entries still building (they are not in
  // lru_ anyway). Never evict the most recent entry: a cache whose
  // limits are smaller than one plan still has to serve that plan.
  while (lru_.size() > 1 && (entries_.size() > limits_.max_plans ||
                             stats_.bytes > limits_.max_bytes)) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    if (it == entries_.end()) continue;
    stats_.bytes -= it->second.plan->footprint_bytes();
    entries_.erase(it);
    ++stats_.evictions;
  }
  stats_.plans = entries_.size();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lk(mu_);
  return stats_;
}

void PlanCache::clear() {
  MutexLock lk(mu_);
  // Entries under construction are owned by their builder; forget only
  // the completed ones.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.building) {
      ++it;
    } else {
      it = entries_.erase(it);
    }
  }
  lru_.clear();
  stats_.plans = entries_.size();
  stats_.bytes = 0;
}

void PlanCache::set_limits(Limits limits) {
  MutexLock lk(mu_);
  limits_ = limits;
  evict_locked();
}

PlanCache& PlanCache::global() {
  static PlanCache* cache = new PlanCache;  // leaked: usable at exit
  return *cache;
}

}  // namespace bwfft::tune
