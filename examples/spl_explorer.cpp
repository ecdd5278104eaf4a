// SPL explorer — the formalism of §II-C as a runnable demo.
//
// Prints the paper's factorisations (Cooley–Tukey, the rotated 2D/3D
// decompositions the engines run, the dual-socket plan with its Table III
// write matrices) and verifies each against the dense DFT numerically,
// mirroring how SPIRAL-derived implementations are validated.
#include <cstdio>

#include "pipeline/stage_plan.h"
#include "spl/algorithms.h"

using namespace bwfft;
using namespace bwfft::spl;

namespace {

void show(const char* title, const ExprPtr& got, const ExprPtr& want) {
  const double err = max_abs_diff(*got, *want);
  std::printf("%s\n  %s\n  max |got - dense| = %.2e  [%s]\n\n", title,
              got->str().c_str(), err, err < 1e-10 ? "OK" : "MISMATCH");
}

/// The plan the engines would run for dims over `sockets` z-slabs, with
/// the packet pinned (0 = the plan's auto packet on this host).
StagePlan plan_for(const std::vector<idx_t>& dims, idx_t mu, int sockets = 1) {
  FftOptions opts;
  opts.packet_elems = mu;
  if (sockets > 1) opts.threads = 2 * sockets;  // two threads a socket
  return make_stage_plan(dims, opts, sockets);
}

}  // namespace

int main() {
  std::printf("SPL factorisations from the paper, verified against dense "
              "semantics\n\n");

  show("Cooley-Tukey: DFT_8 = (DFT_2 (x) I_4) D (I_2 (x) DFT_4) L",
       cooley_tukey(2, 4), dft(8));

  show("2D pencil: DFT_{4x4}", dft2d_pencil(4, 4),
       kron(dft(4), dft(4)));

  show("2D blocked plan (mu=2): DFT_{4x8}", plan_term(plan_for({4, 8}, 2)),
       kron(dft(4), dft(8)));

  show("3D rotated plan (mu=2): DFT_{2x4x4}",
       plan_term(plan_for({2, 4, 4}, 2)), kron(dft(2), kron(dft(4), dft(4))));

  show("3D slab-pencil: DFT_{2x4x4}", dft3d_slab_pencil(2, 4, 4),
       kron(dft(2), kron(dft(4), dft(4))));

  show("Dual-socket plan (Table III, sk=2, mu=2): DFT_{4x4x4}",
       plan_term(plan_for({4, 4, 4}, 2, 2)),
       kron(dft(4), kron(dft(4), dft(4))));

  std::printf("Rotation operator K_4^{2,3} (cube 2x3x4 -> 4x2x3):\n  %s\n",
              rotation_k(2, 3, 4)->str().c_str());
  std::printf("Stage-1 write matrix W_{b=8,i=1} for 2x4x4, mu=2:\n  %s\n\n",
              write_matrix_stage1(2, 4, 4, 2, 8, 1)->str().c_str());

  // The plan the engines execute for DFT_{4x4x8}, one term per stage.
  const StagePlan plan = plan_for({4, 4, 8}, 0);
  std::printf("Planned stages of DFT_{4x4x8} (auto packet mu=%lld):\n",
              static_cast<long long>(plan.mu));
  for (std::size_t k = 0; k < plan.stages.size(); ++k) {
    std::printf("  %s: %s\n", plan.stages[k].name,
                stage_term(plan, k)->str().c_str());
  }
  std::printf("\n");
  show("Whole plan term: DFT_{4x4x8}", plan_term(plan),
       kron(dft(4), kron(dft(4), dft(8))));
  return 0;
}
