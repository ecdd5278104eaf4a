#include "parallel/roles.h"

namespace bwfft {

RolePlan make_role_plan(int total, int compute, const MachineTopology& topo) {
  BWFFT_CHECK(total >= 1, "role plan needs >= 1 thread");
  BWFFT_CHECK(compute >= 0 && compute <= total,
              "compute thread count out of range");
  RolePlan plan;
  plan.total = total;
  plan.compute = compute;
  plan.data = total - compute;
  // Degenerate single-role teams: every thread does everything it is given;
  // a team with no data threads runs the pipeline's Private schedule, each
  // thread loading and storing its own slice.
  plan.role.resize(static_cast<std::size_t>(total));
  plan.index.resize(static_cast<std::size_t>(total));
  plan.cpu.assign(static_cast<std::size_t>(total), -1);

  int next_compute = 0, next_data = 0;
  for (int tid = 0; tid < total; ++tid) {
    const bool pick_compute =
        (tid % 2 == 0 && next_compute < compute) || next_data >= plan.data;
    if (pick_compute) {
      plan.role[static_cast<std::size_t>(tid)] = Role::Compute;
      plan.index[static_cast<std::size_t>(tid)] = next_compute++;
    } else {
      plan.role[static_cast<std::size_t>(tid)] = Role::Data;
      plan.index[static_cast<std::size_t>(tid)] = next_data++;
    }
  }

  // CPU suggestions: pair 2i/2i+1 shares a core. With SMT the pair gets
  // the core's two hyperthreads; without SMT both land on the core itself.
  // A team with no data threads has no pairs: one thread per CPU.
  const int ncpus = topo.total_threads();
  for (int tid = 0; tid < total; ++tid) {
    int cpu;
    if (topo.smt_per_core >= 2 || plan.data == 0) {
      cpu = tid;  // Linux enumerates hyperthread siblings adjacently
    } else {
      cpu = tid / 2;  // pair shares the physical core
    }
    if (cpu < ncpus) plan.cpu[static_cast<std::size_t>(tid)] = cpu;
  }
  return plan;
}

}  // namespace bwfft
