// Thread role assignment — compute threads vs soft-DMA data threads.
//
// §III-C / §IV-A: of the p threads, p_d move data and p_c compute
// (p = p_c + p_d; the paper's even split runs only when
// FftOptions::compute_threads asks for it, the plan default is p_c = p,
// the Private schedule), and each data thread is paired with a compute
// thread on the same physical core so the two share functional units
// while issuing complementary instruction mixes. This
// module computes the role of every team thread and the logical CPU it
// should be pinned to for a given machine topology.
#pragma once

#include <vector>

#include "common/error.h"
#include "common/topology.h"
#include "common/types.h"

namespace bwfft {

enum class Role { Compute, Data };

struct RolePlan {
  int total = 0;           ///< team size p
  int compute = 0;         ///< p_c
  int data = 0;            ///< p_d
  std::vector<Role> role;  ///< role of each tid
  std::vector<int> index;  ///< rank within its role group (0..p_c-1 / 0..p_d-1)
  std::vector<int> cpu;    ///< suggested logical CPU per tid (-1 = unpinned)

  Role role_of(int tid) const { return role[static_cast<std::size_t>(tid)]; }
  bool is_compute(int tid) const { return role_of(tid) == Role::Compute; }
  /// Rank of tid within its role group.
  int group_rank(int tid) const { return index[static_cast<std::size_t>(tid)]; }
};

/// Build a role plan for `total` threads with `compute` of them computing
/// (the rest move data). Thread 2i is the compute thread and 2i+1 the data
/// thread of pair i while both groups last; leftovers are appended. CPU
/// suggestions pair pairs onto cores: on SMT machines (smt_per_core = 2)
/// the two hyperthreads of core i are 2i and 2i+1 under the usual Linux
/// enumeration, so pair i maps to CPUs {2i, 2i+1}; on non-SMT machines the
/// two threads of a pair share core i (both pinned to CPU i), matching the
/// paper's AMD configuration where threads time-share the core's units.
/// With compute == total there are no pairs and thread i gets CPU i.
RolePlan make_role_plan(int total, int compute, const MachineTopology& topo);

/// Even split per the paper's default: half compute, half data. For
/// total == 1 the single thread computes and moves data sequentially.
inline RolePlan make_even_role_plan(int total, const MachineTopology& topo) {
  return make_role_plan(total, total <= 1 ? total : total / 2, topo);
}

}  // namespace bwfft
