#include "spl/algorithms.h"

#include "pipeline/stage_plan.h"

namespace bwfft::spl {

namespace {
void check_divides(idx_t a, idx_t b, const char* what) {
  BWFFT_CHECK(a > 0 && b > 0 && b % a == 0, std::string(what));
}
}  // namespace

// ------------------------------------------------------------------ 1D FFT

ExprPtr cooley_tukey(idx_t m, idx_t n, Direction dir) {
  BWFFT_CHECK(m > 1 && n > 1, "cooley_tukey needs m,n > 1");
  return compose({
      kron(dft(m, dir), identity(n)),
      twiddle_diag(m, n, dir),
      kron(identity(m), dft(n, dir)),
      stride_perm(m * n, m),
  });
}

// ------------------------------------------------------------------ 2D FFT

ExprPtr dft2d_pencil(idx_t n, idx_t m, Direction dir) {
  return compose({
      kron(dft(n, dir), identity(m)),
      kron(identity(n), dft(m, dir)),
  });
}

ExprPtr dft2d_transposed(idx_t n, idx_t m, Direction dir) {
  return compose({
      stride_perm(m * n, n),                 // L_n^{mn}: m x n -> n x m
      kron(identity(m), dft(n, dir)),        // columns as unit-stride rows
      stride_perm(m * n, m),                 // L_m^{mn}: n x m -> m x n
      kron(identity(n), dft(m, dir)),        // rows
  });
}

// ------------------------------------------------------------------ 3D FFT

ExprPtr dft3d_pencil(idx_t k, idx_t n, idx_t m, Direction dir) {
  return compose({
      kron(dft(k, dir), identity(n * m)),
      kron(kron(identity(k), dft(n, dir)), identity(m)),
      kron(identity(k * n), dft(m, dir)),
  });
}

ExprPtr dft3d_slab_pencil(idx_t k, idx_t n, idx_t m, Direction dir) {
  // The slab DFT_{n x m} is itself the pencil 2D factorisation; fusing the
  // first two stages is the P3DFFT trick that reduces round trips.
  return compose({
      kron(dft(k, dir), identity(n * m)),
      kron(identity(k), dft2d_pencil(n, m, dir)),
  });
}

ExprPtr rotation_k(idx_t a, idx_t b, idx_t c) {
  // K_c^{a,b} = (L_c^{ca} (x) I_b) (I_a (x) L_c^{cb})
  return compose({
      kron(stride_perm(c * a, c), identity(b)),
      kron(identity(a), stride_perm(c * b, c)),
  });
}

ExprPtr rotation_k_blocked(idx_t a, idx_t b, idx_t c, idx_t mu) {
  check_divides(mu, c, "rotation_k_blocked needs mu | c");
  return kron(rotation_k(a, b, c / mu), identity(mu));
}

// ------------------------------------------------------ The planned stages

namespace {

/// e (x) I_n, or e itself for n == 1 (keeps the rendered terms short).
ExprPtr with_lanes(ExprPtr e, idx_t n) {
  return n == 1 ? e : kron(std::move(e), identity(n));
}

}  // namespace

ExprPtr stage_term(const StagePlan& plan, std::size_t k, Direction dir) {
  BWFFT_CHECK(k < plan.stages.size(), "stage_term: no such stage");
  const PlannedStage& s = plan.stages[k];
  switch (s.kind) {
    case StageKind::Rotated: {
      const StageGeometry& g = s.geom;
      ExprPtr compute =
          with_lanes(kron(identity(s.rows), dft(g.fft_len, dir)), g.lanes);
      if (plan.sockets == 1) {
        return compose(
            {rotation_k_blocked(g.a, g.b, g.row_elems(), g.mu), compute});
      }
      // Socket plan: every socket transforms its own rows, then W^{k+1}.
      const idx_t sk = plan.sockets;
      const idx_t kd = plan.dims[0], n = plan.dims[1], m = plan.dims[2];
      ExprPtr w = k == 0   ? dual_socket_w1(kd, n, m, plan.mu, sk)
                  : k == 1 ? dual_socket_w2(kd, n, m, plan.mu, sk)
                           : dual_socket_w3(kd, n, m, plan.mu, sk);
      return compose({std::move(w), kron(identity(sk), std::move(compute))});
    }
    case StageKind::Columns:
      return compose({twiddle_diag(plan.n1, plan.n2, dir),
                      kron(dft(plan.n1, dir), identity(plan.n2))});
    case StageKind::Rows:
      return compose({stride_perm(plan.total, plan.n2),
                      kron(identity(plan.n1), dft(plan.n2, dir))});
    case StageKind::Flat:
      return dft(plan.total, dir);
  }
  throw Error("unknown stage kind");
}

ExprPtr plan_term(const StagePlan& plan, Direction dir) {
  BWFFT_CHECK(!plan.stages.empty(), "plan_term needs a planned stage");
  std::vector<ExprPtr> stages;
  for (std::size_t k = plan.stages.size(); k-- > 0;) {
    stages.push_back(stage_term(plan, k, dir));
  }
  return stages.size() == 1 ? stages.front() : compose(std::move(stages));
}

// ------------------------------------------- Tiled stage / W and R matrices

ExprPtr read_matrix(idx_t total, idx_t b, idx_t i) {
  return gather(total, b, i);
}

ExprPtr write_matrix_stage1(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t b,
                            idx_t i) {
  return compose({
      rotation_k_blocked(k, n, m, mu),
      scatter(k * n * m, b, i),
  });
}

std::vector<ExprPtr> stage1_tiled(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t b,
                                  Direction dir) {
  const idx_t total = k * n * m;
  check_divides(m, b, "stage1_tiled needs m | b");
  check_divides(b, total, "stage1_tiled needs b | knm");
  std::vector<ExprPtr> iters;
  for (idx_t i = 0; i < total / b; ++i) {
    iters.push_back(compose({
        write_matrix_stage1(k, n, m, mu, b, i),
        kron(identity(b / m), dft(m, dir)),
        read_matrix(total, b, i),
    }));
  }
  return iters;
}

// ------------------------------------------------ Dual socket (Table III)

ExprPtr dual_socket_w1(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t sk) {
  check_divides(sk, k, "dual socket needs sk | k");
  const idx_t ksl = k / sk;
  // Per-socket blocked rotation of the local slab ksl x n x m; data stays
  // within the socket (Fig 8, stage 1 writes locally).
  return kron(identity(sk), rotation_k_blocked(ksl, n, m, mu));
}

ExprPtr dual_socket_w2(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t sk) {
  check_divides(sk, k, "dual socket needs sk | k");
  const idx_t ksl = k / sk;
  // Local rotation [xp][zl][y] -> [y][xp][zl], then the cross-socket
  // exchange (L_{nm/mu}^{sk nm/mu} (x) I_{ksl mu}) reassembles full-z
  // pencils distributed by y (Fig 8, stage 2 writes across sockets).
  return compose({
      kron(stride_perm(sk * n * m / mu, n * m / mu), identity(ksl * mu)),
      kron(identity(sk), kron(rotation_k(m / mu, ksl, n), identity(mu))),
  });
}

ExprPtr dual_socket_w3(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t sk) {
  check_divides(sk, k, "dual socket needs sk | k");
  check_divides(sk, n, "dual socket needs sk | n");
  const idx_t nsl = n / sk;
  // Local rotation [yl][xp][z] -> [z][yl][xp], then the exchange
  // (L_k^{sk k} (x) I_{nm/sk}) restores the natural global order
  // distributed by z (Fig 8, stage 3 writes across sockets).
  return compose({
      kron(stride_perm(sk * k, k), identity(n * m / sk)),
      kron(identity(sk), kron(rotation_k(nsl, m / mu, k), identity(mu))),
  });
}

}  // namespace bwfft::spl
