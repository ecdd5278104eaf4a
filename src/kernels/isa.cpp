#include "kernels/isa.h"

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "common/cpu.h"

namespace bwfft::kernels {

namespace {

Isa clamp_to_host(Isa isa) {
  const Isa best = detected_isa();
  return static_cast<int>(isa) > static_cast<int>(best) ? best : isa;
}

/// BWFFT_ISA, parsed once. Unset or unparsable -> Auto (a typo should not
/// silently de-vectorise a production run; the dispatch report shows what
/// was read).
Isa env_request() {
  static const Isa parsed = [] {
    const char* v = std::getenv("BWFFT_ISA");
    if (v == nullptr || *v == '\0') return Isa::Auto;
    Isa isa = Isa::Auto;
    if (!isa_from_name(v, &isa)) return Isa::Auto;
    return isa;
  }();
  return parsed;
}

std::atomic<int> g_override{static_cast<int>(Isa::Auto)};
std::atomic<bool> g_force_scalar{false};

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Auto: return "auto";
    case Isa::Scalar: return "scalar";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "?";
}

bool isa_from_name(const std::string& name, Isa* out) {
  if (name == "auto") { *out = Isa::Auto; return true; }
  if (name == "scalar") { *out = Isa::Scalar; return true; }
  if (name == "avx2") { *out = Isa::Avx2; return true; }
  if (name == "avx512" || name == "avx512f") { *out = Isa::Avx512; return true; }
  return false;
}

Isa detected_isa() {
  static const Isa best = [] {
    const CpuFeatures& f = cpu_features();
    if (f.avx512f) return Isa::Avx512;
    if (f.avx2 && f.fma) return Isa::Avx2;
    return Isa::Scalar;
  }();
  return best;
}

bool isa_available(Isa isa) {
  if (isa == Isa::Auto) return true;
  return static_cast<int>(isa) <= static_cast<int>(detected_isa());
}

Isa active_isa() { return resolve_isa(Isa::Auto); }

Isa resolve_isa(Isa requested) {
  if (force_scalar()) return Isa::Scalar;
  if (requested != Isa::Auto) return clamp_to_host(requested);
  const Isa ovr = static_cast<Isa>(g_override.load(std::memory_order_relaxed));
  if (ovr != Isa::Auto) return clamp_to_host(ovr);
  if (env_request() != Isa::Auto) return clamp_to_host(env_request());
  return detected_isa();
}

void set_isa_override(Isa isa) {
  g_override.store(static_cast<int>(isa), std::memory_order_relaxed);
}

Isa isa_override() {
  return static_cast<Isa>(g_override.load(std::memory_order_relaxed));
}

bool force_scalar() { return g_force_scalar.load(std::memory_order_relaxed); }

void set_force_scalar(bool v) {
  g_force_scalar.store(v, std::memory_order_relaxed);
}

std::string dispatch_report() {
  const CpuFeatures& f = cpu_features();
  std::ostringstream os;
  os << "cpu: " << cpu_summary() << "\n";
  os << "features: sse2=" << f.sse2 << " avx=" << f.avx << " avx2=" << f.avx2
     << " fma=" << f.fma << " avx512f=" << f.avx512f << "\n";
  os << "detected: " << isa_name(detected_isa()) << "\n";
  const char* env = std::getenv("BWFFT_ISA");
  os << "env BWFFT_ISA: " << (env != nullptr ? env : "(unset)") << "\n";
  os << "override: " << isa_name(isa_override()) << "\n";
  os << "force_scalar: " << (force_scalar() ? 1 : 0) << "\n";
  os << "active: " << isa_name(active_isa()) << "\n";
  return os.str();
}

}  // namespace bwfft::kernels
