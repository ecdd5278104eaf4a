// Internal engine interface implemented by each algorithm.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "fft/options.h"

namespace bwfft {

class MdEngine {
 public:
  virtual ~MdEngine() = default;

  /// Out-of-place transform (in != out). Engines may clobber `in` — it is
  /// a working array, matching the FFTW_DESTROY_INPUT convention the
  /// paper's large-size runs rely on.
  virtual void execute(cplx* in, cplx* out) = 0;

  virtual const char* name() const = 0;

  /// Threads one execute runs on: the plan's team size p (1 where the
  /// plan runs on the caller alone, whatever the request asked for).
  virtual int threads() const = 0;
};

/// Build an engine for the given dimensions (size 2 => [n, m] 2D; size 3
/// => [k, n, m] 3D cube, slowest first).
std::unique_ptr<MdEngine> make_engine(const std::vector<idx_t>& dims,
                                      Direction dir, const FftOptions& opts);

}  // namespace bwfft
