// ADI (Alternating Direction Implicit) iteration — paper §4, Listings 7-8.
//
// We use the Douglas/approximate-factorization residual form: implicit
// pseudo-time stepping of u_t = L u - f with the factored left-hand side,
// which keeps exactly the listings' structure while being an
// unconditionally convergent iteration for the model operator L = L1 + L2
// (L1 = a dxx + c/2, L2 = b dyy + c/2, both negative semi-definite):
//
//   r = tau * (L u - f)               -- resid (Jacobi-like communication)
//   (I - tau L2) v = r                -- tridiagonal solves in y direction
//   (I - tau L1) w = v                -- tridiagonal solves in x direction
//   u = u + w
//
// Listing 7 (adi):  each y-line/x-line solve is a call to the parallel
// constant-coefficient solver tric on a slice u(i,*) / v(*,j) over the
// processor row/column owning it.
//
// Listing 8 (madi): each processor row localizes its slab v(lo:hi, *) and
// calls the pipelined mtri so the log(p) tree phases of consecutive lines
// overlap — "better speed-ups with the pipelined version".
//
// Transpose variant: instead of distributed line solves, the direction
// switch is a data redistribution — r is remapped to dist (block, *) so
// every y-line solve is a purely local Thomas sweep, then to (*, block)
// for the x-direction, then back to (block, block).  Each rank solves its
// lines of a direction in place as one batch (ConstTridiag::solve_lines).
// This is the paper's "variety of distribution patterns can be tried by
// simple modifications" made concrete, and it exercises redistribute()'s
// box-intersection slab exchange on every iteration.
//
// Arrays hold the n x n interior with a zero Dirichlet ghost frame
// (dist (block, block) over procs(px, py), halo 1).
#pragma once

#include "runtime/dist_array.hpp"
#include "solvers/model.hpp"

namespace kali {

struct AdiOptions {
  Op2 op;             ///< operator coefficients a, b, c and spacings
  double tau = 0.05;  ///< pseudo-timestep of the factored iteration
  bool pipelined = false;  ///< Listing 8 (mtri) instead of Listing 7 (tric)
  bool transpose = false;  ///< direction switch by redistribution: remap to
                           ///< (block, *) / (*, block) so every line solve is
                           ///< local (overrides `pipelined`); requires the
                           ///< view to be a contiguous rank range
  /// kOn overlaps communication with compute: the residual's halo exchange
  /// runs split-phase (interior stencil between post and wait, boundary
  /// ring after), and in transpose mode the three redistributions hide
  /// their pack and self-overlap copies inside the wire window.  Results
  /// are bit-identical to kOff — same messages, same values; only clocks
  /// and the overlap counters move (tests/test_async.cpp).
  Overlap overlap = Overlap::kOff;
};

/// One ADI iteration; u and f are (block, block) over a 2-D view with
/// halo >= 1 on both dims.  Collective over the view.
void adi_iterate(const AdiOptions& opts, DistArray2<double>& u,
                 const DistArray2<double>& f);

/// ||f - L u||_2 over the interior (replicated on all members).
double adi_residual_norm(const Op2& op, const DistArray2<double>& u,
                         const DistArray2<double>& f);

/// Run `iters` iterations; returns the final residual norm.
double adi_solve(const AdiOptions& opts, DistArray2<double>& u,
                 const DistArray2<double>& f, int iters);

/// A reasonable default pseudo-timestep for the model operator on an n x n
/// interior grid (balances low and high frequency damping).
double adi_default_tau(const Op2& op, int n);

}  // namespace kali
