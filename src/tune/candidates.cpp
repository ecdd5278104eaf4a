#include "tune/candidates.h"

#include <algorithm>
#include <cstdio>

#include <cmath>

#include "common/error.h"
#include "fft1d/fft1d.h"
#include "kernels/isa.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_plan.h"

namespace bwfft::tune {

namespace {

/// Fraction of each streamed cacheline actually used when moving
/// mu-element packets (mu = 0 means the auto packet, at least one
/// cacheline wide).
double packet_efficiency(idx_t mu) {
  if (mu <= 0) mu = kMu;
  const double bytes = static_cast<double>(mu) * sizeof(cplx);
  return std::min(1.0, bytes / static_cast<double>(kCachelineBytes));
}

/// Strided pencil passes touch one element per cacheline.
constexpr double kStridedEfficiency =
    static_cast<double>(sizeof(cplx)) / kCachelineBytes;

/// Fraction of the slower role's rate the Split pipeline sustains (the
/// paper measures 74-92% of the achievable peak).
constexpr double kOverlapEfficiency = 0.85;

/// Per pipeline iteration fixed cost (barrier hand-off, task dispatch).
constexpr double kIterationOverheadSeconds = 4e-6;

/// Sustained per-core FFT arithmetic rate by instruction set, in GF/s —
/// deliberately coarse (the model ranks, it does not predict): one FMA
/// port's worth of scalar work, then the 4x / 8x lane widths discounted
/// for the shuffle/tail overhead of real kernels.
double isa_gflops_per_core(kernels::Isa isa) {
  switch (kernels::resolve_isa(isa)) {
    case kernels::Isa::Avx512: return 16.0;
    case kernels::Isa::Avx2: return 8.0;
    default: return 2.0;
  }
}

}  // namespace

TuneCandidate default_candidate() { return TuneCandidate{}; }

FftOptions apply_candidate(const TuneCandidate& c, FftOptions base) {
  base.engine = c.engine;
  base.compute_threads = c.compute_threads;
  base.block_elems = c.block_elems;
  base.packet_elems = c.packet_elems;
  base.factor_n1 = c.factor_n1;
  base.nontemporal = c.nontemporal;
  base.isa = c.isa;
  return base;
}

bool same_config(const TuneCandidate& a, const TuneCandidate& b) {
  return a.engine == b.engine && a.compute_threads == b.compute_threads &&
         a.block_elems == b.block_elems && a.packet_elems == b.packet_elems &&
         a.factor_n1 == b.factor_n1 && a.nontemporal == b.nontemporal &&
         a.isa == b.isa;
}

std::string candidate_label(const TuneCandidate& c) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s c=%d b=%lld mu=%lld f1=%lld nt=%d isa=%s",
                engine_name(c.engine), c.compute_threads,
                static_cast<long long>(c.block_elems),
                static_cast<long long>(c.packet_elems),
                static_cast<long long>(c.factor_n1),
                c.nontemporal ? 1 : 0, kernels::isa_name(c.isa));
  return buf;
}

std::vector<TuneCandidate> enumerate_candidates(const std::vector<idx_t>& dims,
                                                const FftOptions& req) {
  BWFFT_CHECK(dims.size() >= 1 && dims.size() <= 3,
              "tuning supports 1D, 2D and 3D transforms");
  const bool one_d = dims.size() == 1;
  const int p = resolved_threads(req);
  const idx_t m = dims.back();  // fast dimension: mu must divide it

  // Axis values. A knob the caller pinned collapses to that single value.
  std::vector<EngineKind> engines;
  if (req.engine != EngineKind::Auto) {
    engines = {req.engine};
  } else {
    // Stage-parallel first: a double-buffer candidate that plans its
    // stages (p_c = p with temporal stores) is then the one dropped.
    engines = {EngineKind::StageParallel, EngineKind::DoubleBuffer};
    // Never enumerate a candidate the engine would reject: pencil (and
    // the naive 1D DIT) plans only at powers of two, and slab-pencil's
    // buffered z pencils need a Stockham size.
    if (std::all_of(dims.begin(), dims.end(), is_pow2)) {
      engines.push_back(EngineKind::Pencil);
    }
    if (dims.size() == 3 && has_stockham_schedule(dims[0])) {
      engines.push_back(EngineKind::SlabPencil);
    }
  }

  std::vector<int> splits;  // double-buffer only; others ignore it
  if (req.compute_threads >= 0) {
    splits = {req.compute_threads};
  } else {
    // The plan's default split (p_c = p, the Private schedule), then the
    // Split alternatives: the paper's even split, and more compute than
    // data threads (for compute-heavy stages the even split starves the
    // FFT side, §IV-B).
    splits = {-1};
    for (int c : {p / 2, (3 * p) / 4}) {
      if (p >= 2 &&
          std::find(splits.begin(), splits.end(), c) == splits.end()) {
        splits.push_back(c);
      }
    }
  }

  // Block axis: the policy block (0) plus half of it — twice the
  // iterations, half the cache footprint, which wins when the LLC is
  // shared with the application.
  std::vector<idx_t> blocks = {std::max<idx_t>(req.block_elems, 0)};
  if (req.block_elems <= 0 && default_block_elems(req.topo) / 2 > 0) {
    blocks.push_back(default_block_elems(req.topo) / 2);
  }

  // 2D/3D: the rotation packet. 1D has no packet axis — the four-step
  // passes size their groups per factor — so the four-step factorization
  // takes its place: the near-square default n1 plus the x2 / /2 skews
  // that still divide n, so measurement can catch hosts where an
  // asymmetric split (cheaper column gathers vs cheaper row scatters)
  // wins.
  std::vector<idx_t> packets = {0}, factors = {0};
  if (one_d) {
    if (req.factor_n1 > 0) {
      factors = {req.factor_n1};
    } else {
      const idx_t f0 = four_step_factors(m, 0).first;
      factors = {f0};
      for (idx_t skew : {f0 / 2, f0 * 2}) {
        if (f0 > 1 && skew >= 2 && m % skew == 0 && m / skew >= 2) {
          factors.push_back(skew);
        }
      }
    }
  } else if (req.packet_elems > 0) {
    packets = {req.packet_elems};
  } else {
    // The auto packet is the plan's, widened past the SIMD width where
    // the lane rows stay core-private. Keep the SIMD packet and the
    // one-cacheline §III-A packet as explicit candidates where they
    // differ from it, so measurement can reject a wide packet on hosts
    // where it loses (e.g. a smaller L2, or heavy downclocking).
    FftOptions auto_req = req;
    auto_req.packet_elems = 0;
    const idx_t auto_mu = make_stage_plan(dims, auto_req).mu;
    for (idx_t alt : {resolve_packet_size(0, m), kMu}) {
      if (m % alt == 0 && alt != auto_mu &&
          std::find(packets.begin(), packets.end(), alt) == packets.end()) {
        packets.push_back(alt);
      }
    }
    // The element-wise (mu = 1) and half-cacheline variants of the
    // §III-A ablation, only where they divide the fast dimension.
    if (m % 2 == 0) packets.push_back(2);
    packets.push_back(1);
  }

  const bool nt_values[] = {true, false};

  // ISA axis: a pinned request collapses to itself; otherwise Auto (the
  // runtime-dispatched best) plus each strictly narrower SIMD set the
  // host can execute — measurement can then catch machines where the
  // widest vectors lose (AVX-512 downclocking). Scalar is never
  // enumerated: on these bandwidth-bound engines it can only tie.
  std::vector<kernels::Isa> isas;
  if (req.isa != kernels::Isa::Auto) {
    isas = {req.isa};
  } else {
    isas = {kernels::Isa::Auto};
    if (kernels::detected_isa() == kernels::Isa::Avx512) {
      isas.push_back(kernels::Isa::Avx2);
    }
  }

  // A planned candidate whose plan (threads, split, stages) and ISA an
  // earlier candidate already has would run the same transform, and is
  // left out. Under Private a 2D/3D claim is capped by the core-private
  // budget, so both block values usually plan the same claims; a stage
  // that fits in either block plans alike under Split too.
  std::vector<std::pair<StagePlan, kernels::Isa>> planned;
  const auto duplicate = [&](const TuneCandidate& c) {
    if (c.engine != EngineKind::DoubleBuffer &&
        c.engine != EngineKind::StageParallel) {
      return false;
    }
    StagePlan plan;
    try {
      plan = make_stage_plan(dims, apply_candidate(c, req));
    } catch (const Error&) {
      return false;  // no plan to compare: make_engine reports the knob
    }
    for (const auto& [q, isa] : planned) {
      if (isa == c.isa && q.threads == plan.threads &&
          q.compute_threads == plan.compute_threads &&
          q.stages == plan.stages) {
        return true;
      }
    }
    planned.emplace_back(std::move(plan), c.isa);
    return false;
  };

  std::vector<TuneCandidate> out;
  for (EngineKind e : engines) {
    const bool db = e == EngineKind::DoubleBuffer;
    // Stage-parallel shares the rotation packet in 2D/3D (its stores are
    // always temporal); in 1D it is the flat Stockham pass, which (like
    // the naive DIT) tunes only the ISA.
    const bool rotates = db || (!one_d && e == EngineKind::StageParallel);
    const bool tunes_isa = rotates || (one_d && e != EngineKind::Reference);
    for (int c : splits) {
      if (!db && c != splits.front()) continue;
      for (idx_t b : blocks) {
        if (!db && b != blocks.front()) continue;
        for (idx_t mu : packets) {
          if (!rotates && mu != packets.front()) continue;
          if (mu > 0 && m % mu != 0) continue;
          for (idx_t f : factors) {
            if (!db && f != factors.front()) continue;
            for (bool nt : nt_values) {
              if (!db && nt != nt_values[0]) continue;
              for (kernels::Isa isa : isas) {
                if (!tunes_isa && isa != isas.front()) continue;
                TuneCandidate cand;
                cand.engine = e;
                cand.compute_threads = db ? c : -1;
                cand.block_elems = db ? b : 0;
                cand.packet_elems = rotates ? mu : 0;
                cand.factor_n1 = db ? f : 0;
                // Stage-parallel rotations store temporally.
                cand.nontemporal = db ? nt : !rotates;
                cand.isa = tunes_isa ? isa : kernels::Isa::Auto;
                if (!duplicate(cand)) out.push_back(cand);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

double estimate_seconds(const TuneCandidate& c, const std::vector<idx_t>& dims,
                        const MachineTopology& topo, int threads) {
  double n = 1.0;
  for (idx_t d : dims) n *= static_cast<double>(d);
  const int rank = static_cast<int>(dims.size());
  const double bw = std::max(topo.stream_bw_gbs, 1e-3) * 1e9;  // bytes/s
  const double bytes = n * sizeof(cplx);  // one pass over the data, one way

  // Store-side traffic: without NT stores every streamed line is first
  // read for ownership, doubling the write cost (§IV-A).
  const double write = bytes * (c.nontemporal ? 1.0 : 2.0);
  const double mu_eff = packet_efficiency(c.packet_elems);

  // The double-buffer engine and the stage-parallel baseline (its Private
  // claims with temporal stores, or in 1D its Flat pass) execute a
  // StagePlan: price the p, p_c, block, four-step split and schedule it
  // resolves. DRAM bandwidth grows with the cores that issue requests, so
  // under Split the p_d data threads move the stage's bytes at their
  // p_d / p share of STREAM while the p_c compute threads overlap them; a
  // pass costs the slower role, over the overlap efficiency. Private has
  // no overlap but every core moves data: the full STREAM rate, then the
  // flops on all p cores.
  const bool planned = c.engine == EngineKind::DoubleBuffer ||
                       c.engine == EngineKind::StageParallel;
  StagePlan plan;
  if (planned) {
    FftOptions o;
    o.topo = topo;
    o.threads = threads;
    plan = make_stage_plan(dims, apply_candidate(c, o));
  }
  const bool split = plan.schedule() == Schedule::Split;
  const double per_core = isa_gflops_per_core(c.isa) * 1e9;
  const auto pass = [&](double io_seconds, double flops) {
    if (!split) return io_seconds + flops / (plan.threads * per_core);
    return std::max(io_seconds * plan.threads / plan.data_threads,
                    flops / (std::max(1, plan.compute_threads) * per_core)) /
           kOverlapEfficiency;
  };
  const double block = static_cast<double>(plan.block_elems);

  if (rank == 1 && c.engine == EngineKind::Pencil) {
    // Bit-reversal scatter at one element per cacheline, then log2(n)
    // in-place DIT sweeps over the whole array.
    const double bitrev = (bytes + bytes) / (bw * kStridedEfficiency);
    return bitrev + std::log2(std::max(2.0, n)) * (bytes + bytes) / bw;
  }
  if (rank == 1 && planned && plan.stages[0].kind == StageKind::Flat) {
    // Flat Stockham: ping-pong between the array and its scratch once
    // per greedy radix-16 level; sizes whose working set (data +
    // scratch) stays LLC-resident collapse to one DRAM round trip.
    const double t = std::log2(std::max(2.0, n));
    const double levels = std::max(1.0, std::ceil(t / 4.0));
    const double passes =
        4.0 * bytes <= static_cast<double>(topo.llc_bytes) ? 1.0 : levels;
    const double io = passes * (bytes + bytes) / bw;
    return std::max(io, 5.0 * n * t / per_core);
  }
  if (rank == 1 && planned) {
    // Two software-pipelined passes (the Columns and Rows stages of
    // fft/double_buffer.h): W-wide column-group gathers + NT W-runs, then
    // contiguous row loads + NT R-runs. The plan's group widths W and R
    // set each pass's streamed-line utilisation, which is the bandwidth
    // term that ranks the factorization axis.
    const idx_t f1 = plan.n1, f2 = plan.n2;
    const double io1 =
        (bytes + write) / (bw * packet_efficiency(plan.stages[0].group));
    const double io2 =
        bytes / bw + write / (bw * packet_efficiency(plan.stages[1].group));
    // 5 n log2(f) per pass plus ~6 flops/elem of twiddle diagonal.
    const double fl1 =
        5.0 * n * std::log2(std::max(2.0, static_cast<double>(f1))) + 6.0 * n;
    const double fl2 =
        5.0 * n * std::log2(std::max(2.0, static_cast<double>(f2)));
    // Per-step overhead is priced at the policy block, not the plan's: a
    // block the Rows stage grew to cover every rank takes fewer, longer
    // steps whose halves overflow the LLC budget by the same factor, and
    // the model does not credit the trade either way.
    const double policy = static_cast<double>(
        c.block_elems > 0 ? c.block_elems : default_block_elems(topo));
    const double iters = 2.0 * std::max(1.0, n / policy);
    return pass(io1, fl1) + pass(io2, fl2) + iters * kIterationOverheadSeconds;
  }

  switch (c.engine) {
    case EngineKind::Pencil: {
      // Stage 0 runs at unit stride; every later dimension walks the
      // array at its natural stride, one element per cacheline each way.
      const double stage0 = (bytes + bytes) / bw;
      const double strided = (bytes + bytes) / (bw * kStridedEfficiency);
      return stage0 + (rank - 1) * strided;
    }
    case EngineKind::SlabPencil: {
      // Per-slab 2D transform (two passes over the cube) then strided z
      // pencils. When a slab overflows the LLC the 2D stage pays its own
      // intermediate round trip.
      const double slab_bytes =
          static_cast<double>(dims[1]) * static_cast<double>(dims[2]) *
          sizeof(cplx);
      const double slab_passes =
          slab_bytes > static_cast<double>(topo.llc_bytes) ? 3.0 : 2.0;
      const double slab = slab_passes * (bytes + bytes) / bw;
      const double z = (bytes + bytes) / (bw * kStridedEfficiency);
      return slab + z;
    }
    case EngineKind::StageParallel:
    case EngineKind::DoubleBuffer: {
      // Per stage one pass (priced by its schedule, above) plus a fixed
      // pipeline cost per block iteration. The compute term is what makes
      // the model dispatch-aware: 5 n log2(d) flops per stage against the
      // per-core rate of the candidate's resolved ISA.
      const double iters = std::max(1.0, n / block);
      double total = 0.0;
      for (idx_t d : dims) {
        const double io = bytes / bw + write / (bw * mu_eff);
        const double flops =
            5.0 * n * std::log2(std::max(2.0, static_cast<double>(d)));
        total += pass(io, flops) + iters * kIterationOverheadSeconds;
      }
      return total;
    }
    case EngineKind::Reference:
      // O(n^2) per dimension: model the arithmetic, not the bandwidth.
      return [&] {
        double cost = 0.0;
        for (idx_t d : dims) cost += n * static_cast<double>(d);
        return cost / 1e9;
      }();
    case EngineKind::Auto:
      break;
  }
  throw Error("estimate_seconds: candidate engine must be concrete");
}

}  // namespace bwfft::tune
