#include "fft/fft.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>
#include <thread>

#include "common/error.h"
#include "fault/fault.h"
#include "fft/double_buffer.h"
#include "fft/pencil.h"
#include "fft/reference.h"
#include "fft/slab_pencil.h"
#include "layout/stream_copy.h"
#include "obs/obs.h"
#include "tune/tuner.h"

namespace bwfft {

const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::Reference: return "reference";
    case EngineKind::Pencil: return "pencil";
    case EngineKind::StageParallel: return "stage-parallel";
    case EngineKind::SlabPencil: return "slab-pencil";
    case EngineKind::DoubleBuffer: return "double-buffer";
    case EngineKind::Auto: return "auto";
  }
  return "?";
}

const char* tune_level_name(TuneLevel level) {
  switch (level) {
    case TuneLevel::Estimate: return "estimate";
    case TuneLevel::Measure: return "measure";
    case TuneLevel::Exhaustive: return "exhaustive";
  }
  return "?";
}

bool engine_kind_from_name(const std::string& name, EngineKind* out) {
  if (name == "reference") {
    *out = EngineKind::Reference;
  } else if (name == "pencil") {
    *out = EngineKind::Pencil;
  } else if (name == "stage-parallel" || name == "stagepar") {
    *out = EngineKind::StageParallel;
  } else if (name == "slab-pencil" || name == "slab") {
    *out = EngineKind::SlabPencil;
  } else if (name == "double-buffer" || name == "dbuf") {
    *out = EngineKind::DoubleBuffer;
  } else if (name == "auto") {
    *out = EngineKind::Auto;
  } else {
    return false;
  }
  return true;
}

bool tune_level_from_name(const std::string& name, TuneLevel* out) {
  if (name == "estimate") {
    *out = TuneLevel::Estimate;
  } else if (name == "measure") {
    *out = TuneLevel::Measure;
  } else if (name == "exhaustive") {
    *out = TuneLevel::Exhaustive;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Thin adapter running the dense oracle behind the engine interface.
class ReferenceEngine final : public MdEngine {
 public:
  ReferenceEngine(std::vector<idx_t> dims, Direction dir, FftOptions opts)
      : dims_(std::move(dims)), dir_(dir), opts_(opts) {}

  void execute(cplx* in, cplx* out) override {
    if (dims_.size() == 1) {
      reference_dft_1d(in, out, dims_[0], dir_);
    } else if (dims_.size() == 2) {
      reference_dft_2d(in, out, dims_[0], dims_[1], dir_);
    } else {
      reference_dft_3d(in, out, dims_[0], dims_[1], dims_[2], dir_);
    }
    if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
      idx_t total = 1;
      for (idx_t d : dims_) total *= d;
      const double s = 1.0 / static_cast<double>(total);
      for (idx_t i = 0; i < total; ++i) out[i] *= s;
    }
  }
  const char* name() const override { return "reference"; }
  int threads() const override { return 1; }

 private:
  std::vector<idx_t> dims_;
  Direction dir_;
  FftOptions opts_;
};

// ---------------------------------------------------------------------------
// 1D adapter (docs/INTERNALS.md §15). The EngineKind axis maps onto the
// 1D strategies the ext_large1d bench compares: DoubleBuffer is the
// double-buffer engine's four-step stages (the same DoubleBufferEngine as
// for 2D/3D), StageParallel the same engine on its one Flat stage, and
// Pencil the naive strided-DIT baseline below.

/// EngineKind::Pencil for dims.size() == 1: the naive in-place DIT with
/// bit-reversal — the cache-hostile baseline (§II-D applied to 1D).
class NaiveDit1dEngine final : public MdEngine {
 public:
  NaiveDit1dEngine(idx_t n, Direction dir, const FftOptions& opts)
      : n_(n), dir_(dir), opts_(opts), fft_(n, dir, opts.isa) {
    BWFFT_CHECK(is_pow2(n), "naive 1D DIT needs a power-of-two size");
  }
  void execute(cplx* in, cplx* out) override {
    std::memcpy(out, in, static_cast<std::size_t>(n_) * sizeof(cplx));
    fft_.apply_strided_inplace(out, 1);
    if (dir_ == Direction::Inverse && opts_.normalize_inverse) {
      fft_.scale_inverse(out, n_);
    }
  }
  const char* name() const override { return "naive-dit"; }
  int threads() const override { return 1; }

 private:
  idx_t n_;
  Direction dir_;
  FftOptions opts_;
  Fft1d fft_;
};

}  // namespace

std::unique_ptr<MdEngine> make_engine(const std::vector<idx_t>& dims,
                                      Direction dir, const FftOptions& opts) {
  BWFFT_CHECK(dims.size() >= 1 && dims.size() <= 3,
              "only 1D, 2D and 3D transforms are supported");
  for (idx_t d : dims) BWFFT_CHECK(d >= 1, "dimensions must be positive");
  const bool one_d = dims.size() == 1;
  switch (opts.engine) {
    case EngineKind::Reference:
      return std::make_unique<ReferenceEngine>(dims, dir, opts);
    case EngineKind::Pencil:
      if (one_d) return std::make_unique<NaiveDit1dEngine>(dims[0], dir, opts);
      return std::make_unique<PencilEngine>(dims, dir, opts);
    case EngineKind::SlabPencil:
      return std::make_unique<SlabPencilEngine>(dims, dir, opts);
    case EngineKind::StageParallel:  // its own StagePlan (make_stage_plan)
    case EngineKind::DoubleBuffer:
      return std::make_unique<DoubleBufferEngine>(dims, dir, opts);
    case EngineKind::Auto:
      // The planner picks the engine and knobs (wisdom first, then the
      // cost model / measurement ladder); the resolved options are
      // guaranteed concrete, so this recursion terminates.
      return make_engine(dims, dir, tune::resolve_auto(dims, dir, opts));
  }
  throw Error("unknown engine kind");
}

void inplace_copy_back(cplx* dst, const cvec& work, bool nontemporal) {
  const idx_t count = static_cast<idx_t>(work.size());
  [[maybe_unused]] const std::uint64_t bytes =
      static_cast<std::uint64_t>(work.size()) * sizeof(cplx);
  BWFFT_OBS_COUNT(BytesLoaded, bytes);
  BWFFT_OBS_COUNT(BytesStored, bytes);
  copy_stream(dst, work.data(), count, nontemporal);
  if (nontemporal) stream_fence();
}

namespace {

// ---------------------------------------------------------------------------
// Recovery policy (docs/INTERNALS.md §10) shared by the facades.

constexpr int kMaxRetries = 3;

/// A stall or lost worker may be transient (or injected once): worth a
/// retry with a smaller team. Everything else either cannot recover
/// (kBadPlan, kInternal) or recovers by switching engines, not resizing.
bool transient(ErrorCode c) {
  return c == ErrorCode::kStall || c == ErrorCode::kWorkerLost;
}

/// Shrink the plan after a transient failure: halve the thread budget and
/// let the role split re-derive itself from the new size.
void halve_threads(FftOptions& opts) {
  opts.threads = std::max(1, resolved_threads(opts) / 2);
  opts.compute_threads = -1;
}

/// Degrade the engine after a non-transient failure. Multidimensional
/// plans fall straight to the dense reference oracle; 1D plans first try
/// the flat Stockham pass (stage-parallel) — it needs no team and no
/// placed buffers either, and unlike the O(n^2) oracle it stays usable
/// at the out-of-LLC sizes the four-step passes serve. False when already
/// at the last resort.
bool degrade_engine(const std::vector<idx_t>& dims, FftOptions& opts,
                    const char* what) {
  const std::string reason(what);
  if (dims.size() == 1 && opts.engine != EngineKind::StageParallel &&
      opts.engine != EngineKind::Reference) {
    fault::note_degrade(
        (reason + "; falling back to flat Stockham engine").c_str());
    fault::note_retry();
    opts.engine = EngineKind::StageParallel;
    opts.packet_elems = 0;  // the flat pass has no column group to pin
    return true;
  }
  if (opts.engine != EngineKind::Reference) {
    fault::note_degrade(
        (reason + "; falling back to reference engine").c_str());
    fault::note_retry();
    opts.engine = EngineKind::Reference;
    return true;
  }
  return false;
}

}  // namespace

/// Engine construction for the facades and the exec/tune layers.
/// Recoverable construction failures (an injected or real spawn failure,
/// placed-alloc exhaustion) degrade the options and try again instead of
/// failing the plan; kBadPlan — the request itself is invalid — still
/// throws.
std::unique_ptr<MdEngine> make_engine_recovering(
    const std::vector<idx_t>& dims, Direction dir, FftOptions& opts) {
  for (int attempt = 0;; ++attempt) {
    ErrorCode code = ErrorCode::kInternal;
    try {
      return make_engine(dims, dir, opts);
    } catch (const Error& e) {
      code = e.code();
      if (code == ErrorCode::kBadPlan || code == ErrorCode::kInternal ||
          attempt >= kMaxRetries) {
        throw;
      }
    } catch (const std::bad_alloc&) {
      code = ErrorCode::kAllocFailed;
      if (attempt >= kMaxRetries) throw;
    }
    if (transient(code) && resolved_threads(opts) > 1) {
      halve_threads(opts);
      fault::note_retry();
    } else if (!degrade_engine(dims, opts, "plan construction failed")) {
      // Terminal fallback exhausted: the dense oracle needs no team and
      // no placed buffers, so it survives anything short of heap
      // exhaustion — if even it fails, surface the error.
      throw Error(code, "reference engine failed to build");
    }
  }
}

/// Shared body of Fft2d/Fft3d::try_execute and CachedPlan::try_execute.
/// Attempts the current engine; on failure classifies the error, degrades
/// the stored options (so the fallback sticks for later calls), rebuilds
/// and retries with a short backoff, bounded by kMaxRetries.
Status try_execute_recovering(const std::vector<idx_t>& dims, Direction dir,
                              FftOptions& opts,
                              std::unique_ptr<MdEngine>& engine, cplx* in,
                              cplx* out, ExecReport* rep) {
  Status st;
  int retries = 0;
  for (int attempt = 0;; ++attempt) {
    try {
      if (!engine) engine = make_engine(dims, dir, opts);
      engine->execute(in, out);
      st = Status::Ok();
      break;
    } catch (const Error& e) {
      st = Status(e.code(), e.what());
    } catch (const std::bad_alloc&) {
      st = Status(ErrorCode::kAllocFailed,
                  "allocation failed while executing plan");
    } catch (const std::exception& e) {
      st = Status(ErrorCode::kInternal, e.what());
    }
    // The failed engine's team and buffers are suspect — rebuild.
    engine.reset();
    if (st.code() == ErrorCode::kBadPlan ||
        st.code() == ErrorCode::kInternal || attempt >= kMaxRetries) {
      break;
    }
    if (transient(st.code()) && resolved_threads(opts) > 1) {
      halve_threads(opts);
      fault::note_retry();
      ++retries;
      // Brief backoff: an injected straggler or a genuinely overloaded
      // host both benefit from not re-spawning the team immediately.
      std::this_thread::sleep_for(std::chrono::milliseconds(1LL << attempt));
    } else if (degrade_engine(dims, opts, "engine execution failed")) {
      ++retries;
    } else {
      break;
    }
  }
  if (rep) {
    rep->status = st;
    rep->retries = retries;
    rep->threads_used = engine ? engine->threads() : resolved_threads(opts);
    rep->engine = engine ? engine->name() : engine_name(opts.engine);
    rep->degradations = fault::degrade_notes();
  }
  return st;
}

Fft2d::Fft2d(idx_t n, idx_t m, Direction dir, FftOptions opts)
    : n_(n), m_(m), dir_(dir), opts_(std::move(opts)),
      nontemporal_(opts_.nontemporal) {
  engine_ = make_engine_recovering({n_, m_}, dir_, opts_);
}
Fft2d::~Fft2d() = default;
Fft2d::Fft2d(Fft2d&&) noexcept = default;
Fft2d& Fft2d::operator=(Fft2d&&) noexcept = default;

void Fft2d::execute(cplx* in, cplx* out) {
  // A failed try_execute leaves no engine; rebuild (and throw on failure,
  // as this is the throwing API).
  if (!engine_) engine_ = make_engine({n_, m_}, dir_, opts_);
  engine_->execute(in, out);
}

Status Fft2d::try_execute(cplx* in, cplx* out, ExecReport* rep) {
  return try_execute_recovering({n_, m_}, dir_, opts_, engine_, in,
                                out, rep);
}

void Fft2d::execute_inplace(cplx* data) {
  inplace_work_.resize(static_cast<std::size_t>(size()));
  execute(data, inplace_work_.data());
  inplace_copy_back(data, inplace_work_, nontemporal_);
}

const char* Fft2d::engine_name() const { return engine_->name(); }

Fft3d::Fft3d(idx_t k, idx_t n, idx_t m, Direction dir, FftOptions opts)
    : k_(k), n_(n), m_(m), dir_(dir), opts_(std::move(opts)),
      nontemporal_(opts_.nontemporal) {
  engine_ = make_engine_recovering({k_, n_, m_}, dir_, opts_);
}
Fft3d::~Fft3d() = default;
Fft3d::Fft3d(Fft3d&&) noexcept = default;
Fft3d& Fft3d::operator=(Fft3d&&) noexcept = default;

void Fft3d::execute(cplx* in, cplx* out) {
  if (!engine_) engine_ = make_engine({k_, n_, m_}, dir_, opts_);
  engine_->execute(in, out);
}

Status Fft3d::try_execute(cplx* in, cplx* out, ExecReport* rep) {
  return try_execute_recovering({k_, n_, m_}, dir_, opts_, engine_,
                                in, out, rep);
}

void Fft3d::execute_inplace(cplx* data) {
  inplace_work_.resize(static_cast<std::size_t>(size()));
  execute(data, inplace_work_.data());
  inplace_copy_back(data, inplace_work_, nontemporal_);
}

const char* Fft3d::engine_name() const { return engine_->name(); }

}  // namespace bwfft
