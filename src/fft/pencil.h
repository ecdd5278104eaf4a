// Naive pencil-decomposition engine (the lower baseline).
//
// Every dimension is transformed in place at its natural stride
// (§II-D): unit stride for x, stride m for y, stride n*m for z. No
// transposes, no buffering — each non-unit-stride stage walks main memory
// one cacheline per element, which is exactly the bandwidth-wasting
// behaviour the paper sets out to fix. Parallelised over pencils.
#pragma once

#include <memory>
#include <vector>

#include "fft/engine.h"
#include "fft1d/fft1d.h"
#include "parallel/team.h"

namespace bwfft {

class PencilEngine final : public MdEngine {
 public:
  PencilEngine(std::vector<idx_t> dims, Direction dir, const FftOptions& opts);
  void execute(cplx* in, cplx* out) override;
  const char* name() const override { return "pencil"; }
  int threads() const override { return team_->size(); }

 private:
  std::vector<idx_t> dims_;
  Direction dir_;
  FftOptions opts_;
  std::vector<std::shared_ptr<Fft1d>> ffts_;  // one per dimension
  std::shared_ptr<ThreadTeam> team_;  // pooled or private (FftOptions::team_pool)
  idx_t total_ = 1;
};

}  // namespace bwfft
