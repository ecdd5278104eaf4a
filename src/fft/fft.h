// bwfft public API — bandwidth-efficient large multidimensional FFTs.
//
// Reproduction of Popovici, Low, Franchetti, "Large Bandwidth-Efficient
// FFTs on Multicore and Multi-Socket Systems" (IPDPS 2018).
//
// Quickstart:
//
//   #include "fft/fft.h"
//   bwfft::Fft3d plan(256, 256, 256, bwfft::Direction::Forward, {});
//   plan.execute(input.data(), output.data());   // input is clobbered
//
// Plans are created once (twiddles, thread team, cache-resident buffer)
// and executed many times. All engines are out of place and may use the
// input array as scratch (FFTW_DESTROY_INPUT semantics). Select an
// algorithm via FftOptions::engine; the default is the paper's
// double-buffered soft-DMA algorithm.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "common/types.h"
#include "fft/engine.h"
#include "fft/options.h"

namespace bwfft {

/// What a try_execute call did to produce (or fail to produce) a result:
/// the final status, how many times the recovery policy re-planned, and
/// which degraded configuration the plan ended up on. Degradations are
/// sticky — once a plan has fallen back (fewer threads, plain memory,
/// reference engine) it stays there for subsequent calls.
struct ExecReport {
  Status status;
  int retries = 0;       ///< recovery re-plans taken by this call
  int threads_used = 0;  ///< threads of the plan that ran last (its p)
  std::string engine;    ///< engine that produced the result (or last tried)
  std::vector<std::string> degradations;  ///< fallbacks taken, one line each
};

/// Engine construction with the recovery policy of docs/INTERNALS.md §10:
/// recoverable construction failures (spawn failure, placed-alloc
/// exhaustion) degrade `opts` in place — halved thread budget, then the
/// reference engine — and retry instead of failing the plan. kBadPlan
/// still throws: the request itself is invalid.
std::unique_ptr<MdEngine> make_engine_recovering(const std::vector<idx_t>& dims,
                                                 Direction dir,
                                                 FftOptions& opts);

/// The shared no-throw execute-with-recovery body behind
/// Fft2d/Fft3d::try_execute and tune::CachedPlan::try_execute: attempts
/// `engine` (building it from `opts` if null); on failure classifies the
/// error, degrades `opts` in place (sticky for later calls), rebuilds and
/// retries with backoff, bounded. Returns the status of the last attempt;
/// `rep` (optional) receives retries/threads/engine/degradations.
Status try_execute_recovering(const std::vector<idx_t>& dims, Direction dir,
                              FftOptions& opts,
                              std::unique_ptr<MdEngine>& engine, cplx* in,
                              cplx* out, ExecReport* rep = nullptr);

/// The copy-back of every execute_inplace (the facades' and
/// tune::CachedPlan's): `work` goes back to `dst` through the
/// streaming-store path, counted as loaded and stored bytes, so that —
/// with NT stores — it does not evict the cache-resident plan state.
void inplace_copy_back(cplx* dst, const cvec& work, bool nontemporal);

/// 2D complex transform of an n x m row-major array.
class Fft2d {
 public:
  Fft2d(idx_t n, idx_t m, Direction dir, FftOptions opts = {});
  ~Fft2d();
  Fft2d(Fft2d&&) noexcept;
  Fft2d& operator=(Fft2d&&) noexcept;

  /// Transform `in` into `out` (both n*m elements, in != out). `in` may be
  /// overwritten.
  void execute(cplx* in, cplx* out);

  /// No-throw execute with recovery: on a stalled or lost worker the plan
  /// is rebuilt with half the thread budget and retried (bounded, with
  /// backoff); on allocation failure it falls back to the reference
  /// engine. Returns the status of the last attempt; `rep` (optional)
  /// receives the retry count and degradations taken.
  Status try_execute(cplx* in, cplx* out, ExecReport* rep = nullptr);

  /// In-place convenience: transforms `data` through an internal work
  /// array (allocated lazily on first use and kept for reuse).
  void execute_inplace(cplx* data);

  idx_t rows() const { return n_; }
  idx_t cols() const { return m_; }
  idx_t size() const { return n_ * m_; }
  const char* engine_name() const;

 private:
  idx_t n_, m_;
  Direction dir_;
  FftOptions opts_;  // mutated as recovery degrades the plan
  std::unique_ptr<MdEngine> engine_;
  bool nontemporal_ = true;  // copy-back path of execute_inplace
  cvec inplace_work_;
};

/// 3D complex transform of a k x n x m row-major cube (k slowest).
class Fft3d {
 public:
  Fft3d(idx_t k, idx_t n, idx_t m, Direction dir, FftOptions opts = {});
  ~Fft3d();
  Fft3d(Fft3d&&) noexcept;
  Fft3d& operator=(Fft3d&&) noexcept;

  /// Transform `in` into `out` (both k*n*m elements, in != out). `in` may
  /// be overwritten.
  void execute(cplx* in, cplx* out);

  /// No-throw execute with recovery — see Fft2d::try_execute.
  Status try_execute(cplx* in, cplx* out, ExecReport* rep = nullptr);

  /// In-place convenience: transforms `data` through an internal work
  /// array (allocated lazily on first use and kept for reuse).
  void execute_inplace(cplx* data);

  idx_t dim2() const { return m_; }
  idx_t size() const { return k_ * n_ * m_; }
  const char* engine_name() const;

 private:
  idx_t k_, n_, m_;
  Direction dir_;
  FftOptions opts_;  // mutated as recovery degrades the plan
  std::unique_ptr<MdEngine> engine_;
  bool nontemporal_ = true;  // copy-back path of execute_inplace
  cvec inplace_work_;
};

}  // namespace bwfft
