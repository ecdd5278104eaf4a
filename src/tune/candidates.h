// Candidate configurations and the bandwidth cost model that ranks them.
//
// The paper's speedup is a configuration story: the right engine per
// machine (§V: FFTW itself switches to slab-pencil on the AMD boxes), the
// compute/data thread split, the pipeline block b (§IV-A), the rotation
// packet mu (§III-A) and non-temporal stores (§IV-A). The tuner
// enumerates that grid once per transform shape and ranks it with a cost
// model in the spirit of the roofline math in src/obs: every stage is a
// read + write round trip over the working set, so its time is
// bytes / (STREAM bandwidth x an efficiency factor) — strided access
// wastes cachelines, missing overlap serialises movement behind compute,
// write-allocate doubles store traffic without NT stores.
#pragma once

#include <string>
#include <vector>

#include "common/topology.h"
#include "common/types.h"
#include "fft/options.h"

namespace bwfft::tune {

/// One point of the tuning grid: the tunable subset of FftOptions plus
/// the model / measurement results for it.
struct TuneCandidate {
  EngineKind engine = EngineKind::DoubleBuffer;
  int compute_threads = -1;  ///< -1 = the plan default (p_c = p)
  idx_t block_elems = 0;     ///< 0 = LLC/2 policy
  idx_t packet_elems = 0;    ///< 0 = auto (the StagePlan's packet)
  idx_t factor_n1 = 0;       ///< 1D four-step split; 0 = default split
  bool nontemporal = true;
  kernels::Isa isa = kernels::Isa::Auto;  ///< codelet ISA request

  double est_seconds = 0.0;       ///< cost-model estimate
  double measured_seconds = -1.0;  ///< wall time; < 0 = not measured
};

/// The untouched-defaults double-buffer config — the baseline the tuner
/// must never lose to (it is always part of the measured set).
TuneCandidate default_candidate();

/// Copy a candidate's knobs onto `base` (engine becomes concrete).
FftOptions apply_candidate(const TuneCandidate& c, FftOptions base);

/// True when two candidates denote the same configuration (results
/// ignored).
bool same_config(const TuneCandidate& a, const TuneCandidate& b);

/// Human-readable one-liner, e.g. "double-buffer c=-1 b=0 mu=0 nt=1
/// isa=auto".
std::string candidate_label(const TuneCandidate& c);

/// Enumerate the candidate grid for a transform shape: engine kind x
/// compute split x block size x packet size x non-temporal. Engines that
/// ignore a knob contribute one entry per remaining axis; slab-pencil is
/// 3D-only and needs a z size with a Stockham schedule; the dense
/// reference oracle is never a candidate. Knobs the caller pinned in
/// `req` (threads, explicit mu/block/compute) are respected, shrinking
/// the grid. 1D shapes swap the packet axis for the four-step
/// factorization axis (the default n1 plus its x2 / /2 skews, where they
/// divide n); pencil and the naive-DIT baseline are enumerated only when
/// every dimension is a power of two, where they can plan. A double-buffer
/// or stage-parallel candidate whose StagePlan (threads, split, stages)
/// and ISA equal an earlier candidate's is left out: it would run the
/// same transform (the 2D/3D p_c = p temporal-store entries are the
/// stage-parallel plan, listed first).
std::vector<TuneCandidate> enumerate_candidates(const std::vector<idx_t>& dims,
                                                const FftOptions& req);

/// Cost-model estimate in seconds for one candidate on `topo` (uses
/// topo.stream_bw_gbs — calibrate before estimating). Returns a finite
/// time for every enumerated candidate; knob combinations the engines
/// would reject are not enumerated in the first place.
double estimate_seconds(const TuneCandidate& c, const std::vector<idx_t>& dims,
                        const MachineTopology& topo, int threads);

}  // namespace bwfft::tune
