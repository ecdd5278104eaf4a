#include "common/cpu.h"

#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace bwfft {

namespace {

CpuFeatures detect_features() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  unsigned eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.sse2 = (edx >> 26) & 1;
    f.avx = (ecx >> 28) & 1;
    f.fma = (ecx >> 12) & 1;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = (ebx >> 5) & 1;
    f.avx512f = (ebx >> 16) & 1;
  }
#endif
  return f;
}

// Parse strings like "8192K" / "12M" from sysfs cache size files.
std::size_t parse_cache_size(const std::string& s) {
  if (s.empty()) return 0;
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(s[i] - '0');
    ++i;
  }
  if (i < s.size()) {
    char unit = s[i];
    if (unit == 'K' || unit == 'k') value <<= 10;
    if (unit == 'M' || unit == 'm') value <<= 20;
    if (unit == 'G' || unit == 'g') value <<= 30;
  }
  return value;
}

/// Size of cpu0's largest unified/data cache at `level` (0 = any level),
/// read from sysfs; 0 when nothing matches.
std::size_t detect_cache(int level) {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ostringstream base;
    base << "/sys/devices/system/cpu/cpu0/cache/index" << index;
    std::ifstream size_file(base.str() + "/size");
    if (!size_file) break;
    std::string size_str;
    size_file >> size_str;
    std::ifstream type_file(base.str() + "/type");
    std::string type;
    type_file >> type;
    if (type == "Instruction") continue;
    if (level > 0) {
      std::ifstream level_file(base.str() + "/level");
      int l = 0;
      level_file >> l;
      if (l != level) continue;
    }
    best = std::max(best, parse_cache_size(size_str));
  }
  return best;
}

std::size_t detect_llc() {
  const std::size_t llc = detect_cache(0);
  return llc > 0 ? llc : 8u << 20;  // paper's single-socket LLC as fallback
}

std::size_t detect_l2() {
  const std::size_t l2 = detect_cache(2);
  return l2 > 0 ? l2 : 256u << 10;  // the paper's Intel cores' L2
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect_features();
  return f;
}

std::size_t llc_bytes() {
  static const std::size_t sz = detect_llc();
  return sz;
}

std::size_t l2_bytes() {
  static const std::size_t sz = detect_l2();
  return sz;
}

int online_cpus() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string cpu_summary() {
  const CpuFeatures& f = cpu_features();
  std::ostringstream os;
  os << (f.avx512f ? "avx512f" : f.avx2 ? "avx2" : f.avx ? "avx" : "sse2")
     << (f.fma ? "+fma" : "") << ", LLC " << (llc_bytes() >> 20) << " MiB, "
     << online_cpus() << " cpus";
  return os.str();
}

}  // namespace bwfft
