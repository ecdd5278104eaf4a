// Runtime CPU feature and cache detection.
//
// The data-movement layer chooses between temporal and non-temporal store
// paths and between scalar and AVX kernels based on these queries; the
// double-buffer policy sizes its shared buffer from the last-level cache.
#pragma once

#include <cstddef>
#include <string>

namespace bwfft {

/// Features relevant to the kernels in this library.
struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// Detect features of the host CPU (cached after first call).
const CpuFeatures& cpu_features();

/// Best-effort size of the last-level cache in bytes. Reads sysfs on Linux;
/// falls back to 8 MiB (the LLC of the paper's single-socket machines) when
/// detection fails.
std::size_t llc_bytes();

/// Best-effort size of one core's L2 cache in bytes, read from sysfs next
/// to llc_bytes(); falls back to 256 KiB (the L2 of the paper's Intel
/// cores) when detection fails.
std::size_t l2_bytes();

/// Number of online logical CPUs.
int online_cpus();

/// Human-readable summary, e.g. "avx2+fma, LLC 8 MiB, 8 cpus".
std::string cpu_summary();

}  // namespace bwfft
