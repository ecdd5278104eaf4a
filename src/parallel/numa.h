// NUMA-domain memory model (§IV-B, Fig 7).
//
// Each socket owns private main memory; local accesses run at the socket's
// DRAM bandwidth while remote accesses cross the QPI/HT link. On a real
// two-socket system the per-domain buffers would come from
// numa_alloc_onnode and the threads' first touch; on a single-domain
// machine (this reproduction's default) the domains are separate aligned
// allocations and the link is *accounted* rather than physically slower:
// every cross-domain write is recorded so the benchmark harness can apply
// the link-bandwidth term of the paper's roofline model (their Fig 10
// "cumulative bandwidth" analysis) without fabricating latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/error.h"
#include "common/types.h"

namespace bwfft {

/// A distributed array: one contiguous slab per NUMA domain.
class NumaArray {
 public:
  /// `domains` slabs of `elems_per_domain` complex elements each.
  NumaArray(int domains, idx_t elems_per_domain)
      : elems_per_domain_(elems_per_domain) {
    BWFFT_CHECK(domains >= 1 && elems_per_domain >= 0, "bad NUMA array shape");
    slabs_.reserve(static_cast<std::size_t>(domains));
    for (int d = 0; d < domains; ++d) {
      // NUMA-local preference with graceful fallback (fault site
      // "alloc.numa"): on a real two-socket host the owning domain's
      // threads first-touch their slab; on failure the slab degrades to
      // plain aligned memory and only the bandwidth model is off.
      slabs_.emplace_back(static_cast<std::size_t>(elems_per_domain),
                          AllocPlacement::NumaLocal);
    }
  }

  int domains() const { return static_cast<int>(slabs_.size()); }
  idx_t elems_per_domain() const { return elems_per_domain_; }
  idx_t total_elems() const { return elems_per_domain_ * domains(); }

  cplx* slab(int d) { return slabs_[static_cast<std::size_t>(d)].data(); }
  const cplx* slab(int d) const {
    return slabs_[static_cast<std::size_t>(d)].data();
  }

  /// Pointer to global element g; the array is the concatenation of slabs.
  cplx* at(idx_t g) {
    return slab(static_cast<int>(g / elems_per_domain_)) +
           g % elems_per_domain_;
  }

  /// Gather the distributed array into one contiguous vector (tests/IO).
  cvec to_contiguous() const {
    cvec out(static_cast<std::size_t>(total_elems()));
    for (int d = 0; d < domains(); ++d) {
      std::copy(slab(d), slab(d) + elems_per_domain_,
                out.begin() + static_cast<std::ptrdiff_t>(d) * elems_per_domain_);
    }
    return out;
  }

  /// Scatter a contiguous vector into the slabs.
  void from_contiguous(const cvec& in) {
    BWFFT_CHECK(static_cast<idx_t>(in.size()) == total_elems(),
                "size mismatch in from_contiguous");
    for (int d = 0; d < domains(); ++d) {
      std::copy(in.begin() + static_cast<std::ptrdiff_t>(d) * elems_per_domain_,
                in.begin() + static_cast<std::ptrdiff_t>(d + 1) * elems_per_domain_,
                slab(d));
    }
  }

 private:
  idx_t elems_per_domain_;
  std::vector<AlignedBuffer<cplx>> slabs_;
};

/// Cross-socket write traffic (every stage reads its own slab) for the
/// QPI/HT link model.
class LinkTraffic {
 public:
  void record_write(std::size_t bytes) {
    write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void reset() { write_bytes_.store(0); }
  std::size_t write_bytes() const { return write_bytes_.load(); }

  /// Seconds the recorded traffic needs at the given link bandwidth —
  /// the penalty term of the paper's Fig 10 analysis.
  double modeled_seconds(double link_bw_gbs) const {
    if (link_bw_gbs <= 0.0) return 0.0;
    return static_cast<double>(write_bytes()) / (link_bw_gbs * 1e9);
  }

 private:
  std::atomic<std::size_t> write_bytes_{0};
};

}  // namespace bwfft
