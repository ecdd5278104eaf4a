// Thread-to-core pinning.
//
// The paper pins one data thread and one compute thread to the two
// hardware threads of each core so they share the functional units while
// issuing disjoint instruction mixes (§IV-A). Pinning is best-effort: on
// machines with fewer CPUs than the modelled topology (or in containers
// that forbid affinity changes) the call fails gracefully and the team
// keeps running unpinned.
#pragma once

namespace bwfft {

/// Pin the calling thread to the given logical CPU; false if unsupported
/// or the CPU does not exist.
bool pin_current_thread(int cpu);

}  // namespace bwfft
