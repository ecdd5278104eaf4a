// Runtime instruction-set selection for the kernel layer.
//
// The batched codelets (kernels/batch.h) and the streaming-store helpers
// are compiled once per instruction set into separate translation units
// (scalar always; AVX2+FMA and AVX-512F when the compiler supports the
// target flags) and selected at *run time* from cpuid — not at compile
// time from __AVX2__. A portable binary built without -march=native
// therefore still vectorises on capable hosts, and the same binary can be
// forced down a narrower path for testing and ablation:
//
//   1. BWFFT_ISA environment variable ("scalar" | "avx2" | "avx512"),
//      read once at first use; requests above the host's capability
//      clamp down to the best available set.
//   2. set_isa_override() — the programmatic equivalent (tests, benches).
//   3. set_force_scalar() — the ablation toggle; it wins over everything
//      and forces Isa::Scalar.
//
// Decision path: force_scalar ? scalar
//              : override set ? min(override, detected)
//              : env set      ? min(env, detected)
//              : detected best.
#pragma once

#include <string>

namespace bwfft::kernels {

/// Instruction sets the kernel layer dispatches between, ordered from
/// narrowest to widest. `Auto` is only meaningful as a *request* (plan
/// options, candidate grids); active_isa() never returns it.
enum class Isa : int {
  Auto = -1,   ///< "use the best the host offers" (request-side only)
  Scalar = 0,  ///< portable C++ path, one complex at a time
  Avx2 = 1,    ///< AVX2+FMA, 4 complex lanes per split re/im vector pair
  Avx512 = 2,  ///< AVX-512F, 8 complex lanes per split re/im vector pair
};

/// Stable lower-case name ("auto", "scalar", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Parse an isa_name() spelling; false on unknown names.
bool isa_from_name(const std::string& name, Isa* out);

/// Widest ISA the host CPU supports (cpuid; cached after first call).
/// Ignores overrides — this is the hardware's answer.
Isa detected_isa();

/// True when `isa` can execute on this host (Scalar always can).
bool isa_available(Isa isa);

/// The ISA the kernel layer will dispatch to right now, following the
/// decision path documented above. Never returns Auto.
Isa active_isa();

/// Resolve a request against the dispatch state: Auto -> active_isa(),
/// anything else clamps to the host capability (and to Scalar while
/// force_scalar() is set), so the result is always executable.
Isa resolve_isa(Isa requested);

/// Programmatic override (Auto clears it). Requests wider than the host
/// clamp down at resolve time, so forcing "avx512" on an AVX2 box is
/// safe — it just resolves to avx2.
void set_isa_override(Isa isa);

/// Currently installed override (Auto = none).
Isa isa_override();

/// Ablation switch (benches, tests): while set, every request resolves
/// to Isa::Scalar.
bool force_scalar();
void set_force_scalar(bool v);

/// Human-readable dispatch report: detected features, the env/override
/// state, and the active ISA — the text behind `bwfft_cli --dispatch`.
std::string dispatch_report();

}  // namespace bwfft::kernels
