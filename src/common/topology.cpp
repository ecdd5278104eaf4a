#include "common/topology.h"

#include <algorithm>
#include <atomic>

#include "common/cpu.h"

namespace bwfft {

namespace machines {

MachineTopology kabylake_7700k() {
  MachineTopology t;
  t.name = "Intel Kaby Lake 7700K";
  t.sockets = 1;
  t.cores_per_socket = 4;
  t.smt_per_core = 2;
  t.llc_bytes = 8u << 20;
  t.l2_bytes = 256u << 10;
  t.stream_bw_gbs = 40.0;
  return t;
}

MachineTopology haswell_4770k() {
  MachineTopology t;
  t.name = "Intel Haswell 4770K";
  t.sockets = 1;
  t.cores_per_socket = 4;
  t.smt_per_core = 2;
  t.llc_bytes = 8u << 20;
  t.l2_bytes = 256u << 10;
  t.stream_bw_gbs = 20.0;
  return t;
}

MachineTopology amd_fx8350() {
  MachineTopology t;
  t.name = "AMD FX-8350";
  t.sockets = 1;
  t.cores_per_socket = 8;
  t.smt_per_core = 1;
  t.llc_bytes = 8u << 20;
  t.l2_bytes = 1u << 20;
  t.stream_bw_gbs = 12.0;
  return t;
}

MachineTopology haswell_2667v3() {
  MachineTopology t;
  t.name = "Intel Haswell 2667v3 (2 sockets)";
  t.sockets = 2;
  t.cores_per_socket = 4;
  t.smt_per_core = 2;
  t.llc_bytes = 20u << 20;
  t.l2_bytes = 256u << 10;
  t.stream_bw_gbs = 85.0;
  t.link_bw_gbs = 19.2;  // QPI 9.6 GT/s, two links
  return t;
}

MachineTopology amd_6276() {
  MachineTopology t;
  t.name = "AMD 6276 Interlagos (2 sockets)";
  t.sockets = 2;
  t.cores_per_socket = 8;
  t.smt_per_core = 1;
  t.llc_bytes = 16u << 20;
  t.l2_bytes = 1u << 20;
  t.stream_bw_gbs = 20.0;
  t.link_bw_gbs = 12.8;  // HyperTransport 3.1; close to local memory bw
  return t;
}

}  // namespace machines

namespace {

/// Calibrated STREAM bandwidth in GB/s; 0 until published. One shared
/// slot is enough: the host has one memory system.
std::atomic<double> g_calibrated_bw{0.0};

}  // namespace

MachineTopology host_topology() {
  // sysfs walks (LLC size, online CPU mask) are not free and FftOptions
  // default-initialises its topology member on every construction, so
  // detect once per process.
  static const MachineTopology detected = [] {
    MachineTopology t;
    t.name = "host";
    t.sockets = 1;
    t.cores_per_socket = online_cpus();
    t.smt_per_core = 1;
    // Cap the modelled LLC: virtualised environments report the host's
    // whole cache slice (hundreds of MiB), which would make the
    // "cache-resident" shared buffer larger than many working sets. Real
    // LLCs in the paper's machine class are 8-20 MiB.
    t.llc_bytes = std::min<std::size_t>(llc_bytes(), 32u << 20);
    t.l2_bytes = l2_bytes();
    t.stream_bw_gbs = 10.0;  // placeholder until calibrated
    return t;
  }();
  MachineTopology t = detected;
  const double bw = g_calibrated_bw.load(std::memory_order_relaxed);
  if (bw > 0.0) t.stream_bw_gbs = bw;
  return t;
}

void calibrate_host_bandwidth(double gbs) {
  if (gbs > 0.0) g_calibrated_bw.store(gbs, std::memory_order_relaxed);
}

bool host_bandwidth_calibrated() {
  return g_calibrated_bw.load(std::memory_order_relaxed) > 0.0;
}

}  // namespace bwfft
