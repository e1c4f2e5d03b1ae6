#include "solvers/adi.hpp"

#include <cmath>
#include <vector>

#include "kernels/mtri.hpp"
#include "kernels/thomas.hpp"
#include "kernels/tri.hpp"
#include "runtime/doall.hpp"
#include "runtime/redistribute.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

/// r = tau * (L u - f): the pseudo-time defect of u_t = L u - f, whose
/// steady state is L u = f.  (L is negative definite, so the increment
/// carries this sign; see the header comment.)  Does u's copy-in itself:
/// with Overlap::kOn the halo exchange runs split-phase, the interior
/// stencil rows hiding the wire, with the boundary ring after the wait.
void residual_scaled(const Op2& op, double tau, const DistArray2<double>& u,
                     const DistArray2<double>& f, DistArray2<double>& r,
                     Overlap overlap) {
  const int nx = f.extent(0), ny = f.extent(1);
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  const Range xs{0, nx - 1}, ys{0, ny - 1};
  auto uin = u.clone();
  // The box of the doall below: over uin with the ring split, else over r.
  const Box<2> box = owned_box(overlap == Overlap::kOn ? uin : r, {xs, ys});
  const auto uw = uin.window(box.widened({1, 1}), true);
  const auto fw = f.window(box, false);
  const auto rw = r.window(box, false);
  auto body = [&](int i, int j) {
    const double lu = cx * (uw(i - 1, j) + uw(i + 1, j)) +
                      cy * (uw(i, j - 1) + uw(i, j + 1)) + dg * uw(i, j);
    rw(i, j) = tau * (lu - fw(i, j));
  };
  if (overlap == Overlap::kOn) {
    auto ex = uin.exchange_halo_begin();
    doall2_ring(uin, xs, ys, 1, Ring::kInterior, body, 10.0);
    ex.finish();
    doall2_ring(uin, xs, ys, 1, Ring::kBoundary, body, 10.0);
  } else {
    uin.exchange_halo();
    doall2(r, xs, ys, body, 10.0);
  }
}

/// The view's members as a 1-D line view (transpose mode redistributes
/// between 2-D (block, block) and 1-D (block, *) / (*, block) layouts over
/// the same processors, which requires the ranks to be contiguous).
ProcView row_major_line(const ProcView& pv) {
  const std::vector<int> ranks = pv.ranks();
  ProcView line = ProcView::grid1(static_cast<int>(ranks.size()), ranks.front());
  KALI_CHECK(line.ranks() == ranks,
             "adi transpose: view must be a contiguous rank range");
  return line;
}

}  // namespace

double adi_residual_norm(const Op2& op, const DistArray2<double>& u,
                         const DistArray2<double>& f) {
  if (!u.participating()) {
    return 0.0;
  }
  const auto uin = u.copy_in();
  const int nx = f.extent(0), ny = f.extent(1);
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  const Range xs{0, nx - 1}, ys{0, ny - 1};
  const Box<2> box = owned_box(u, {xs, ys});
  const auto uw = uin.window(box.widened({1, 1}), true);
  const auto fw = f.window(box, false);
  const double s = doall2_sum(u, xs, ys, [&](int i, int j) {
    const double lu = cx * (uw(i - 1, j) + uw(i + 1, j)) +
                      cy * (uw(i, j - 1) + uw(i, j + 1)) + dg * uw(i, j);
    const double res = fw(i, j) - lu;
    return res * res;
  });
  return std::sqrt(s);
}

void adi_iterate(const AdiOptions& opts, DistArray2<double>& u,
                 const DistArray2<double>& f) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const Op2& op = opts.op;
  const double tau = opts.tau;
  const int nx = u.extent(0), ny = u.extent(1);
  const Range xs{0, nx - 1}, ys{0, ny - 1};
  KALI_CHECK(u.halo(0) >= 1 && u.halo(1) >= 1, "adi: u needs halo 1");

  // dynamic real r(...), v(...), w(...) dist (block, block)
  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::block_dist(), DimDist::block_dist()};
  D2 r(ctx, u.view(), {nx, ny}, dists);
  D2 w(ctx, u.view(), {nx, ny}, dists);

  residual_scaled(op, tau, u, f, r, opts.overlap);

  // Tridiagonal coefficients of (I - tau L2) and (I - tau L1).
  const double oy = -tau * op.cy();
  const double dy = 1.0 + 2.0 * tau * op.cy() - tau * op.sigma / 2.0;
  const double ox = -tau * op.cx();
  const double dx = 1.0 + 2.0 * tau * op.cx() - tau * op.sigma / 2.0;

  if (opts.transpose) {
    // Direction switch by redistribution: remap r to (block, *) so every
    // y-line is a local Thomas sweep, transpose-redistribute to (*, block)
    // for the x-lines, then land back in (block, block).  All three
    // redistributions are box-intersection slab exchanges, issued through
    // the round-structured schedule (machine/schedule.hpp) with each
    // rank's self-overlap copied locally, never sent.
    const ProcView line = row_major_line(u.view());
    const typename D2::Dists row_dists{DimDist::block_dist(), DimDist::star()};
    const typename D2::Dists col_dists{DimDist::star(), DimDist::block_dist()};
    D2 rrows(ctx, line, {nx, ny}, row_dists);
    D2 vcols(ctx, line, {nx, ny}, col_dists);

    // Each sweep solves the rank's whole slice box in place as one batch
    // of lines (rows are contiguous; a column strides by the slab's row
    // length), charged one Thomas solve per line.  A factorization lives
    // only between the redistributions around its sweep.
    redistribute(ctx, r, rrows, IssueOrder::kRoundSchedule, opts.overlap);
    {
      const Box<2> rows = slice_box(rrows, 0, {xs, ys});
      const auto rw = rrows.window(rows, false);
      const int count = rows.hi[0] - rows.lo[0] + 1;
      for (int l = 0; l < count; ++l) {
        ctx.compute(kThomasFlopsPerRow * ny);
      }
      ConstTridiag(oy, dy, oy, ny).solve_lines(
          rw.lines({rows.lo[0], 0}, /*along=*/1, ny, /*across=*/0, 1, count));
    }
    redistribute(ctx, rrows, vcols, IssueOrder::kRoundSchedule, opts.overlap);
    {
      const Box<2> cols = slice_box(vcols, 1, {xs, ys});
      const auto vw = vcols.window(cols, false);
      const int count = cols.hi[1] - cols.lo[1] + 1;
      for (int l = 0; l < count; ++l) {
        ctx.compute(kThomasFlopsPerRow * nx);
      }
      ConstTridiag(ox, dx, ox, nx).solve_lines(
          vw.lines({0, cols.lo[1]}, /*along=*/0, nx, /*across=*/1, 1, count));
    }
    redistribute(ctx, vcols, w, IssueOrder::kRoundSchedule, opts.overlap);
  } else if (!opts.pipelined) {
    // Listing 7: perform tridiagonal solves in the y direction ...
    D2 v(ctx, u.view(), {nx, ny}, dists);
    doall_slice_owner(r, 0, Range{0, nx - 1}, [&](int i) {
      auto ri = r.fix(0, i);
      auto vi = v.fix(0, i);
      tric(oy, dy, oy, ri, vi);
    });
    // ... and in the x direction.
    doall_slice_owner(v, 1, Range{0, ny - 1}, [&](int j) {
      auto vj = v.fix(1, j);
      auto wj = w.fix(1, j);
      tric(ox, dx, ox, vj, wj);
    });
  } else {
    // Listing 8: every processor row pipelines its slab of y solves ...
    D2 v(ctx, u.view(), {nx, ny}, dists);
    {
      const int lo = r.own_lower(0);
      const int cnt = r.local_count(0);
      auto rs = r.localize(0, lo, cnt);
      auto vs = v.localize(0, lo, cnt);
      mtri_const(oy, dy, oy, rs, vs, /*system_dim=*/0);
    }
    // ... and every processor column its slab of x solves.
    {
      const int lo = v.own_lower(1);
      const int cnt = v.local_count(1);
      auto vs = v.localize(1, lo, cnt);
      auto ws = w.localize(1, lo, cnt);
      mtri_const(ox, dx, ox, vs, ws, /*system_dim=*/1);
    }
  }

  const Box<2> box = owned_box(u, {xs, ys});
  const auto uw = u.window(box, false);
  const auto ww = w.window(box, false);
  doall2(u, xs, ys, [&](int i, int j) { uw(i, j) += ww(i, j); }, 1.0);
}

double adi_solve(const AdiOptions& opts, DistArray2<double>& u,
                 const DistArray2<double>& f, int iters) {
  for (int it = 0; it < iters; ++it) {
    adi_iterate(opts, u, f);
  }
  return adi_residual_norm(opts.op, u, f);
}

double adi_default_tau(const Op2& op, int n) {
  // Balance the damping of the smoothest mode (1 - tau * lmin) against the
  // factored denominator's effect on the stiffest (1 - 4 / (tau * lmax)):
  // tau* = 2 / sqrt(lmin * lmax).
  const double pi2 = std::numbers::pi * std::numbers::pi;
  const double ax = std::min(op.axx, op.ayy);
  const double lmin = pi2 * ax + std::abs(op.sigma) * 0.5;
  const double lmax = 4.0 * std::max(op.cx(), op.cy());
  (void)n;
  return 2.0 / std::sqrt(lmin * lmax);
}

}  // namespace kali
