// SPL factorisations of the DFT / MDFT used by the paper.
//
// Each function builds an SPL term from §II-D / §III / §IV-B of the paper.
// All terms are *specifications*: the optimised kernels in src/layout,
// src/pipeline and src/fft are tested to agree with these terms' dense
// semantics at small sizes, so the factorisations double as the library's
// correctness oracle (the role SPIRAL plays for the paper's authors).
//
// plan_term() is the formula of what the engines run: it reads a
// StagePlan (pipeline/stage_plan.h) stage by stage, so the rotated 2D/3D
// chain, the dual-socket chain (a socket plan: Table III's W matrices
// after each socket's compute) and the 1D four-step passes have one
// description, the plan, and the term follows it (packet mu, split
// n1 x n2, socket count sk) instead of restating it.
//
// Convention for the rotation operator (paper §III-A, Fig 5):
//   K_c^{a,b} = (L_c^{ca} (x) I_b) (I_a (x) L_c^{cb})
// maps a row-major cube a x b x c (c fastest) to the rotated cube c x a x b.
// The paper writes the two superscripts in the opposite order; the
// semantics below are validated against the dense multidimensional DFT, so
// the convention is pinned down by the tests rather than the typography.
#pragma once

#include "spl/expr.h"

namespace bwfft {
struct StagePlan;
}

namespace bwfft::spl {

// ------------------------------------------------------------------ 1D FFT

/// Cooley–Tukey factorisation of DFT_{m n} (§II-D):
///   DFT_mn = (DFT_m (x) I_n) D_n^{mn} (I_m (x) DFT_n) L_m^{mn}.
ExprPtr cooley_tukey(idx_t m, idx_t n, Direction dir = Direction::Forward);

// ------------------------------------------------------------------ 2D FFT

/// Pencil–pencil decomposition (§II-D):
///   DFT_{n x m} = (DFT_n (x) I_m)(I_n (x) DFT_m).
ExprPtr dft2d_pencil(idx_t n, idx_t m, Direction dir = Direction::Forward);

/// Transposed (row–column) form (§III-A):
///   DFT_{n x m} = L_n^{mn}(I_m (x) DFT_n) . L_m^{mn}(I_n (x) DFT_m).
ExprPtr dft2d_transposed(idx_t n, idx_t m, Direction dir = Direction::Forward);

// ------------------------------------------------------------------ 3D FFT

/// Pencil–pencil–pencil decomposition (§II-D):
///   DFT_{k x n x m} = (DFT_k (x) I_nm)(I_k (x) DFT_n (x) I_m)(I_kn (x) DFT_m).
ExprPtr dft3d_pencil(idx_t k, idx_t n, idx_t m,
                     Direction dir = Direction::Forward);

/// Slab–pencil decomposition (§II-B, P3DFFT-style; used by FFTW on AMD):
///   DFT_{k x n x m} = (DFT_k (x) I_nm)(I_k (x) DFT_{n x m}).
ExprPtr dft3d_slab_pencil(idx_t k, idx_t n, idx_t m,
                          Direction dir = Direction::Forward);

/// Rotation K_c^{a,b} (§III-A): cube a x b x c -> cube c x a x b.
ExprPtr rotation_k(idx_t a, idx_t b, idx_t c);

/// Blocked rotation (K_{c/mu}^{a,b} (x) I_mu) moving mu-element cacheline
/// packets: cube a x b x c with c = (c/mu)*mu -> packets rotated.
ExprPtr rotation_k_blocked(idx_t a, idx_t b, idx_t c, idx_t mu);

// ------------------------------------------------------ The planned stages

/// The term of one planned transform, last stage outermost. Per stage:
///   Rotated: (K_{cp}^{a,b} (x) I_mu)(I_{ab} (x) DFT_L (x) I_lanes), read
///            from the stage's geometry — the 2D/3D chain of §III-A,
///            ending in natural order; on a socket plan
///            W^{k+1} (I_sk (x) I_rows (x) DFT_L (x) I_lanes), the
///            dual-socket chain of §IV-B with `rows` per socket;
///   Columns: D_{n2}^{n1 n2} (DFT_{n1} (x) I_{n2});
///   Rows:    L_{n2}^{n} (I_{n1} (x) DFT_{n2}) — with Columns, the
///            four-step DFT_n of the 1D plans;
///   Flat:    DFT_n.
/// Tile sizes (block, W, R) and the role split do not appear: they change
/// how a stage is scheduled, not what it computes.
ExprPtr plan_term(const StagePlan& plan, Direction dir = Direction::Forward);

/// The term of plan.stages[k] alone (one factor of plan_term).
ExprPtr stage_term(const StagePlan& plan, std::size_t k,
                   Direction dir = Direction::Forward);

// ------------------------------------------- Tiled stage / W and R matrices

/// Read matrix R_{b,i} = G_{total,b,i} (§III-B): loads the i-th contiguous
/// block of b elements.
ExprPtr read_matrix(idx_t total, idx_t b, idx_t i);

/// Stage-1 write matrix W_{b,i} = (K_{m/mu}^{k,n} (x) I_mu) S_{knm,b,i}
/// (§III-B): scatters a computed block back through the blocked rotation.
ExprPtr write_matrix_stage1(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t b,
                            idx_t i);

/// The tiled-and-blocked stage 1 (§III-B):
///   sum_i W_{b,i} (I_{b/m} (x) DFT_m) R_{b,i}
/// returned as a vector of the per-iteration compositions; the caller sums
/// their applications (the S windows are disjoint, so the sum is exact).
std::vector<ExprPtr> stage1_tiled(idx_t k, idx_t n, idx_t m, idx_t mu,
                                  idx_t b, Direction dir = Direction::Forward);

// ------------------------------------------------ Dual socket (Table III)

/// Table III write matrices for sk sockets, whole-stage (untiled) form,
/// i.e. without the trailing S_{knm,b,i} window: these are the full
/// rotation+exchange operators; the windowed forms are obtained by
/// composing with scatter(). stage_term uses them for socket plans.
ExprPtr dual_socket_w1(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t sk);
ExprPtr dual_socket_w2(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t sk);
ExprPtr dual_socket_w3(idx_t k, idx_t n, idx_t m, idx_t mu, idx_t sk);

}  // namespace bwfft::spl
