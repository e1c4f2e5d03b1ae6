#include "solvers/mg2.hpp"

#include <cmath>

#include "kernels/thomas.hpp"
#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "runtime/remap.hpp"
#include "support/check.hpp"

namespace kali {

namespace detail {
bool coarsenable(int npts, int nprocs) {
  DimMap m(DimDist::block_dist(), npts, nprocs);
  return m.count(nprocs - 1) >= 1;
}
}  // namespace detail

void mg2_zebra_sweep(const Op2& op, DistArray2<double>& u,
                     const DistArray2<double>& f, int parity,
                     Overlap overlap) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const int nx = u.extent(0) - 1;
  const int ny = u.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();

  const int first = parity == 0 ? 2 : 1;
  const Range xs{1, nx - 1};
  const Range lines{first, ny - 1, 2};
  // The slice loop visits u's lines; solve_line walks all of xs itself.
  const Box<2> box = slice_box(u, 1, {xs, lines});
  const auto fw = f.window(box, false);
  const auto uw = u.window(box.widened({0, 1}), true);
  const auto uo = u.window(box, false);
  std::vector<double> rhs(static_cast<std::size_t>(nx - 1));
  std::vector<double> sol(rhs.size());
  auto solve_line = [&](int j) {
    // Line system along x:  cx u(i-1,j) + dg u(i,j) + cx u(i+1,j) = rhs.
    for (int i = 1; i <= nx - 1; ++i) {
      rhs[static_cast<std::size_t>(i - 1)] =
          fw(i, j) - cy * (uw(i, j - 1) + uw(i, j + 1));
    }
    thomas_solve_const(cx, dg, cx, rhs, sol);
    for (int i = 1; i <= nx - 1; ++i) {
      uo(i, j) = sol[static_cast<std::size_t>(i - 1)];
    }
    ctx.compute((kThomasFlopsPerRow + 4.0) * (nx - 1));
  };
  // Lines of the other colour feed the right-hand side; this colour's
  // lines never read each other, so the solve order is free.
  if (overlap == Overlap::kOn) {
    auto ex = u.exchange_halo_begin();
    doall_slice_ring(u, 1, lines, 1, Ring::kInterior, solve_line);
    ex.finish();
    doall_slice_ring(u, 1, lines, 1, Ring::kBoundary, solve_line);
  } else {
    u.exchange_halo();
    doall_slice_owner(u, 1, lines, solve_line);
  }
}

namespace {

/// r = f - A u on interior points (r's boundary stays zero).  Does u's
/// copy-in itself; Overlap::kOn runs the halo split-phase with the interior
/// stencil between post and wait.
void resid2(const Op2& op, const DistArray2<double>& u,
            const DistArray2<double>& f, DistArray2<double>& r,
            Overlap overlap) {
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  const Range xs{1, nx - 1}, ys{1, ny - 1};
  auto uin = u.clone();
  // The box of the doall below: over uin with the ring split, else over r.
  const Box<2> box = owned_box(overlap == Overlap::kOn ? uin : r, {xs, ys});
  const auto uw = uin.window(box.widened({1, 1}), true);
  const auto fw = f.window(box, false);
  const auto rw = r.window(box, false);
  auto body = [&](int i, int j) {
    const double au = cx * (uw(i - 1, j) + uw(i + 1, j)) +
                      cy * (uw(i, j - 1) + uw(i, j + 1)) + dg * uw(i, j);
    rw(i, j) = fw(i, j) - au;
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

}  // namespace

double mg2_residual_norm(const Op2& op, const DistArray2<double>& u,
                         const DistArray2<double>& f) {
  if (!u.participating()) {
    return 0.0;
  }
  const auto uin = u.copy_in();
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1;
  const double cx = op.cx(), cy = op.cy(), dg = op.diag();
  const Range xs{1, nx - 1}, ys{1, ny - 1};
  const Box<2> box = owned_box(u, {xs, ys});
  const auto uw = uin.window(box.widened({1, 1}), true);
  const auto fw = f.window(box, false);
  const double s = doall2_sum(u, xs, ys, [&](int i, int j) {
    const double au = cx * (uw(i - 1, j) + uw(i + 1, j)) +
                      cy * (uw(i, j - 1) + uw(i, j + 1)) + dg * uw(i, j);
    const double res = fw(i, j) - au;
    return res * res;
  });
  return std::sqrt(s);
}

void mg2_cycle(const Op2& op, DistArray2<double>& u, const DistArray2<double>& f,
               const Mg2Options& opts) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const ProcView& pv = u.view();
  const int nx = u.extent(0) - 1;
  const int ny = u.extent(1) - 1;

  // perform zebra relaxation on even lines, then odd lines
  mg2_zebra_sweep(op, u, f, 0, opts.overlap);
  mg2_zebra_sweep(op, u, f, 1, opts.overlap);

  if (ny <= 2) {
    // Coarsest grid: the zebra sweep solves the single interior line
    // exactly; a few extra sweeps polish the x-y coupling.
    for (int s = 0; s < opts.coarsest_sweeps; ++s) {
      mg2_zebra_sweep(op, u, f, 1, opts.overlap);
    }
    return;
  }

  using D2 = DistArray2<double>;
  const typename D2::Dists dists{DimDist::star(), DimDist::block_dist()};
  const int nyc = ny / 2;

  if (!detail::coarsenable(nyc + 1, pv.extent(0)) && pv.count() > 1) {
    // Block misalignment would leave a processor without rows: agglomerate
    // the correction problem A v = r onto one processor and run the
    // remaining levels there (standard practice on distributed memory).
    D2 r(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
    resid2(op, u, f, r, opts.overlap);
    ProcView pv1 = ProcView::grid1(1, pv.rank_of1(0));
    const typename D2::Dists dists1{DimDist::star(), DimDist::block_dist()};
    D2 r1(ctx, pv1, {nx + 1, ny + 1}, dists1);
    redistribute(ctx, r, r1, opts.remap_order, opts.overlap);
    D2 v1(ctx, pv1, {nx + 1, ny + 1}, dists1, {0, 1});
    if (v1.participating()) {
      mg2_cycle(op, v1, r1, opts);
    }
    D2 v(ctx, pv, {nx + 1, ny + 1}, dists);
    redistribute(ctx, v1, v, opts.remap_order, opts.overlap);
    const Range xs{1, nx - 1}, ys{1, ny - 1};
    const Box<2> box = owned_box(u, {xs, ys});
    const auto uw = u.window(box, false);
    const auto vw = v.window(box, false);
    doall2(u, xs, ys, [&](int i, int j) { uw(i, j) += vw(i, j); }, 1.0);
    return;
  }

  D2 r(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
  resid2(op, u, f, r, opts.overlap);

  // rest2: full weighting in y at even fine lines, injected to coarse.
  D2 g(ctx, pv, {nx + 1, nyc + 1}, dists);
  if (opts.fused_level_remap) {
    // Fused path (mirror of the interpolation side below): split the fine
    // residual by line parity onto the coarse layout first, then weight on
    // the coarse side.  re(K) = r(2K) and ro(K) = r(2K+1); the weighting
    // stencil needs ro at K-1 and K, so ro travels through
    // copy_strided_dim_halo, which delivers those ghosts inside the remap
    // messages — no fine-grid halo exchange of r and no full-size gtmp.
    // g(i,K) = 0.25 r(2K-1) + 0.5 r(2K) + 0.25 r(2K+1) in the same
    // operation order as the unfused path, so the solution is bit-identical.
    D2 re(ctx, pv, {nx + 1, nyc + 1}, dists);
    D2 ro(ctx, pv, {nx + 1, nyc + 1}, dists, {0, 1});
    if (opts.overlap == Overlap::kOn) {
      // Pipeline the two level remaps: post re's receives and sends, then
      // ro's — re's wire drains while ro packs and both self-overlaps
      // copy — and drain them back to back.  Per (src, dst) lane the
      // kTagRemap messages still travel and match in re-then-ro order.
      auto ex_re =
          copy_strided_dim_begin(ctx, r, re, 1, /*s_stride=*/2, /*s_off=*/0,
                                 /*d_stride=*/1, /*d_off=*/0, nyc + 1,
                                 opts.remap_order);
      auto ex_ro = copy_strided_dim_halo_begin(
          ctx, r, ro, 1, /*s_stride=*/2, /*s_off=*/1,
          /*d_stride=*/1, /*d_off=*/0, nyc, opts.remap_order);
      ex_re.finish();
      ex_ro.finish();
    } else {
      copy_strided_dim(ctx, r, re, 1, /*s_stride=*/2, /*s_off=*/0,
                       /*d_stride=*/1, /*d_off=*/0, nyc + 1, opts.remap_order);
      copy_strided_dim_halo(ctx, r, ro, 1, /*s_stride=*/2, /*s_off=*/1,
                            /*d_stride=*/1, /*d_off=*/0, nyc,
                            opts.remap_order);
    }
    const Range xs{1, nx - 1}, ks{1, nyc - 1};
    const Box<2> box = owned_box(g, {xs, ks});
    const auto gw = g.window(box, false);
    const auto rew = re.window(box, false);
    const auto row = ro.window(box.widened({0, 1}), true);
    doall2(
        g, xs, ks,
        [&](int i, int K) {
          gw(i, K) = 0.25 * row(i, K - 1) + 0.5 * rew(i, K) + 0.25 * row(i, K);
        },
        4.0);
  } else {
    r.exchange_halo();
    D2 gtmp(ctx, pv, {nx + 1, ny + 1}, dists);
    const Range xs{1, nx - 1}, evens{2, ny - 2, 2};
    const Box<2> box = owned_box(gtmp, {xs, evens});
    const auto gw = gtmp.window(box, false);
    const auto rw = r.window(box.widened({0, 1}), true);
    doall2(
        gtmp, xs, evens,
        [&](int i, int j) {
          gw(i, j) = 0.25 * rw(i, j - 1) + 0.5 * rw(i, j) + 0.25 * rw(i, j + 1);
        },
        4.0);
    copy_strided_dim(ctx, gtmp, g, 1, /*s_stride=*/2, /*s_off=*/0,
                     /*d_stride=*/1, /*d_off=*/0, nyc + 1, opts.remap_order);
  }

  D2 v(ctx, pv, {nx + 1, nyc + 1}, dists, {0, 1});
  Op2 coarse = op;
  coarse.hy = 2.0 * op.hy;
  mg2_cycle(coarse, v, g, opts);

  // intrp2: linear interpolation in y (Listing 10's 2-D analogue).  The
  // fused path delivers vtmp's even-line ghosts in the remap messages
  // themselves — one redistribution per level switch instead of a remap
  // round plus a halo round.
  D2 vtmp(ctx, pv, {nx + 1, ny + 1}, dists, {0, 1});
  const Range xs{1, nx - 1}, evens{2, ny - 2, 2}, odds{1, ny - 1, 2};
  const Box<2> even_box = owned_box(u, {xs, evens});
  const auto ue = u.window(even_box, false);
  const auto ve = vtmp.window(even_box, false);
  auto even_update = [&](int i, int j) { ue(i, j) += ve(i, j); };
  if (opts.fused_level_remap) {
    copy_strided_dim_halo(ctx, v, vtmp, 1, /*s_stride=*/1, /*s_off=*/0,
                          /*d_stride=*/2, /*d_off=*/0, nyc + 1,
                          opts.remap_order, opts.overlap);
    doall2(u, xs, evens, even_update, 1.0);
  } else if (opts.overlap == Overlap::kOn) {
    // The even-line correction reads only vtmp's owned cells, so it rides
    // inside the separate halo exchange's wire window.
    copy_strided_dim(ctx, v, vtmp, 1, /*s_stride=*/1, /*s_off=*/0,
                     /*d_stride=*/2, /*d_off=*/0, nyc + 1, opts.remap_order,
                     opts.overlap);
    auto ex = vtmp.exchange_halo_begin();
    doall2(u, xs, evens, even_update, 1.0);
    ex.finish();
  } else {
    copy_strided_dim(ctx, v, vtmp, 1, /*s_stride=*/1, /*s_off=*/0,
                     /*d_stride=*/2, /*d_off=*/0, nyc + 1, opts.remap_order);
    vtmp.exchange_halo();
    doall2(u, xs, evens, even_update, 1.0);
  }
  const Box<2> odd_box = owned_box(u, {xs, odds});
  const auto uo = u.window(odd_box, false);
  const auto vo = vtmp.window(odd_box.widened({0, 1}), true);
  doall2(
      u, xs, odds,
      [&](int i, int j) { uo(i, j) += 0.5 * (vo(i, j - 1) + vo(i, j + 1)); },
      3.0);
}

}  // namespace kali
