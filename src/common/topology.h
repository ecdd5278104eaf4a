// Machine topology model.
//
// The paper evaluates on five machines (one/two sockets, Intel/AMD, with
// and without SMT). Thread-role assignment (compute vs soft-DMA data
// threads), pinning, the buffer-size policy and the dual-socket slab-pencil
// decomposition all depend on the topology, so it is modelled explicitly
// rather than assumed. Profiles for the paper's machines are provided so
// the figure harnesses can report the same roofline model even when run on
// different hardware; `host()` builds a profile from the running machine.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace bwfft {

/// Topology and bandwidth description of one machine.
struct MachineTopology {
  std::string name;
  int sockets = 1;
  int cores_per_socket = 1;
  int smt_per_core = 1;        ///< hardware threads per core (Intel HT = 2)
  std::size_t llc_bytes = 8u << 20;  ///< shared last-level cache per socket
  std::size_t l2_bytes = 256u << 10;  ///< core-private L2 per core
  double stream_bw_gbs = 10.0;       ///< STREAM bandwidth, whole machine GB/s
  double link_bw_gbs = 0.0;          ///< cross-socket link bandwidth (QPI/HT)

  int total_threads() const { return sockets * cores_per_socket * smt_per_core; }
  int threads_per_socket() const { return cores_per_socket * smt_per_core; }

  /// Buffer-size policy from §IV-A: half of the LLC (in complex elements).
  idx_t shared_buffer_elems() const {
    return static_cast<idx_t>(llc_bytes / 2 / sizeof(cplx));
  }

  /// Core-private tile budget of the Private schedule: half of one core's
  /// L2 (in complex elements), so a claim and the Stockham scratch of its
  /// transform stay in the L2 together.
  idx_t core_private_elems() const {
    return static_cast<idx_t>(l2_bytes / 2 / sizeof(cplx));
  }
};

/// Profiles of the machines evaluated in the paper (§V, experimental setup).
namespace machines {
MachineTopology kabylake_7700k();    ///< 1 socket, 4c/8t, 8 MB L3, 40 GB/s
MachineTopology haswell_4770k();     ///< 1 socket, 4c/8t, 8 MB L3, 20 GB/s
MachineTopology amd_fx8350();        ///< 1 socket, 8c/8t, 8 MB L3, 12 GB/s
MachineTopology haswell_2667v3();    ///< 2 sockets, 8c/16t, 20 MB L3, 85 GB/s
MachineTopology amd_6276();          ///< 2 sockets, 16c/16t, 16 MB L3, 20 GB/s
// L2 per core: 256 KB on the Intel parts; the AMD modules share 2 MB
// between two cores, modelled as 1 MB per core.
}  // namespace machines

/// Topology of the machine this process runs on. LLC, L2 and CPU count are
/// detected once (function-local static — FftOptions default-constructs
/// one of these per plan, so detection must not re-read sysfs every
/// time); bandwidth starts at a conservative placeholder until
/// calibrate_host_bandwidth() publishes a measured STREAM rate.
MachineTopology host_topology();

/// Publish a measured STREAM bandwidth (GB/s); subsequent host_topology()
/// calls report it in stream_bw_gbs. The autotuner calls this with the
/// rate from src/stream so cost models stop using the placeholder.
/// Non-positive values are ignored. Thread-safe.
void calibrate_host_bandwidth(double gbs);

/// True once calibrate_host_bandwidth() has published a real rate.
bool host_bandwidth_calibrated();

}  // namespace bwfft
