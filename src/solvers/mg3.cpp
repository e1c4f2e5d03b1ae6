#include "solvers/mg3.hpp"

#include <cmath>

#include "machine/context.hpp"
#include "runtime/doall.hpp"
#include "runtime/remap.hpp"
#include "support/check.hpp"

namespace kali {

namespace {

/// r = f - A u on interior points; r's boundary planes stay zero.  Does u's
/// copy-in itself: with Overlap::kOn the halo exchange runs split-phase, the
/// interior stencil cells hiding the wire, with the boundary ring after the
/// wait.
void resid3(const Op3& op, const DistArray3<double>& u,
            const DistArray3<double>& f, DistArray3<double>& r,
            Overlap overlap) {
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1, nz = f.extent(2) - 1;
  const double cx = op.cx(), cy = op.cy(), cz = op.cz(), dg = op.diag();
  const Range xs{1, nx - 1}, ys{1, ny - 1}, zs{1, nz - 1};
  auto uin = u.clone();
  // The box of the doall below: over uin with the ring split, else over r.
  const Box<3> box = owned_box(overlap == Overlap::kOn ? uin : r, {xs, ys, zs});
  const auto uw = uin.window(box.widened({1, 1, 1}), true);
  const auto fw = f.window(box, false);
  const auto rw = r.window(box, false);
  auto body = [&](int i, int j, int k) {
    const double au = cx * (uw(i - 1, j, k) + uw(i + 1, j, k)) +
                      cy * (uw(i, j - 1, k) + uw(i, j + 1, k)) +
                      cz * (uw(i, j, k - 1) + uw(i, j, k + 1)) + dg * uw(i, j, k);
    rw(i, j, k) = fw(i, j, k) - au;
  };
  if (overlap == Overlap::kOn) {
    auto ex = uin.exchange_halo_begin();
    doall3_ring(uin, xs, ys, zs, 1, Ring::kInterior, body, 14.0);
    ex.finish();
    doall3_ring(uin, xs, ys, zs, 1, Ring::kBoundary, body, 14.0);
  } else {
    uin.exchange_halo();
    doall3(r, xs, ys, zs, body, 14.0);
  }
}

}  // namespace

void mg3_zebra_sweep(const Op3& op, DistArray3<double>& u,
                     const DistArray3<double>& f, int parity,
                     const Mg3Options& opts) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1, nz = u.extent(2) - 1;

  // perform zebra relaxation on planes of this parity:
  //   call resid3(r, u, f; procs)
  //   doall k on owner(u(*, *, k)):  call mg2(u(*,*,k), r(*,*,k); ...)
  using D3 = DistArray3<double>;
  const typename D3::Dists dists3{DimDist::star(), DimDist::block_dist(),
                                  DimDist::block_dist()};
  D3 r(ctx, u.view(), {nx + 1, ny + 1, nz + 1}, dists3, {0, 1, 0});
  resid3(op, u, f, r, opts.overlap);

  const Op2 pop = op.plane_op();
  const int first = parity == 0 ? 2 : 1;
  doall_slice_owner(u, 2, Range{first, nz - 1, 2}, [&](int k) {
    auto uplane = u.fix(2, k);
    auto rplane = r.fix(2, k);
    // Correction form: the plane equation for the update delta is
    // A_plane delta = r|plane (off-plane couplings are already in r).
    DistArray2<double> delta(ctx, uplane.view(), {nx + 1, ny + 1},
                             {DimDist::star(), DimDist::block_dist()}, {0, 1});
    for (int cyc = 0; cyc < opts.plane_cycles; ++cyc) {
      mg2_cycle(pop, delta, rplane, opts.plane_mg2);
    }
    const Range xs{1, nx - 1}, ys{1, ny - 1};
    const Box<2> box = owned_box(uplane, {xs, ys});
    const auto uw = uplane.window(box, false);
    const auto dw = delta.window(box, false);
    doall2(uplane, xs, ys, [&](int i, int j) { uw(i, j) += dw(i, j); }, 1.0);
  });
}

double mg3_residual_norm(const Op3& op, const DistArray3<double>& u,
                         const DistArray3<double>& f) {
  if (!u.participating()) {
    return 0.0;
  }
  const auto uin = u.copy_in();
  const int nx = f.extent(0) - 1, ny = f.extent(1) - 1, nz = f.extent(2) - 1;
  const double cx = op.cx(), cy = op.cy(), cz = op.cz(), dg = op.diag();
  const Range xs{1, nx - 1}, ys{1, ny - 1}, zs{1, nz - 1};
  const Box<3> box = owned_box(u, {xs, ys, zs});
  const auto uw = uin.window(box.widened({1, 1, 1}), true);
  const auto fw = f.window(box, false);
  double local = 0.0;
  doall3(
      u, xs, ys, zs,
      [&](int i, int j, int k) {
        const double au = cx * (uw(i - 1, j, k) + uw(i + 1, j, k)) +
                          cy * (uw(i, j - 1, k) + uw(i, j + 1, k)) +
                          cz * (uw(i, j, k - 1) + uw(i, j, k + 1)) + dg * uw(i, j, k);
        const double res = fw(i, j, k) - au;
        local += res * res;
      },
      15.0);
  Group g = u.group();
  return std::sqrt(allreduce_sum(u.context(), g, local));
}

void mg3_cycle(const Op3& op, DistArray3<double>& u, const DistArray3<double>& f,
               const Mg3Options& opts) {
  if (!u.participating()) {
    return;
  }
  Context& ctx = u.context();
  const ProcView& pv = u.view();
  const int nx = u.extent(0) - 1, ny = u.extent(1) - 1, nz = u.extent(2) - 1;

  // perform zebra relaxation on even planes, then odd planes
  mg3_zebra_sweep(op, u, f, 0, opts);
  mg3_zebra_sweep(op, u, f, 1, opts);

  // recursively solve the z-semicoarsened coarse grid problem
  if (nz <= 2) {
    return;  // the plane solve above already handled the single plane
  }
  const int nzc = nz / 2;

  using D3 = DistArray3<double>;
  const typename D3::Dists dists3{DimDist::star(), DimDist::block_dist(),
                                  DimDist::block_dist()};

  if (!detail::coarsenable(nzc + 1, pv.extent(1)) && pv.extent(1) > 1) {
    // Agglomerate the correction problem onto the first processor column
    // (z becomes single-owner; y stays distributed) and continue there.
    D3 r(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3);
    resid3(op, u, f, r, opts.overlap);
    ProcView pvz = pv.sub(1, 0, 1);
    D3 r1(ctx, pvz, {nx + 1, ny + 1, nz + 1}, dists3);
    redistribute(ctx, r, r1, opts.remap_order, opts.overlap);
    D3 v1(ctx, pvz, {nx + 1, ny + 1, nz + 1}, dists3, {0, 1, 1});
    if (v1.participating()) {
      for (int c = 0; c < opts.gamma; ++c) {
        mg3_cycle(op, v1, r1, opts);
      }
    }
    D3 v(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3);
    redistribute(ctx, v1, v, opts.remap_order, opts.overlap);
    const Range xs{1, nx - 1}, ys{1, ny - 1}, zs{1, nz - 1};
    const Box<3> box = owned_box(u, {xs, ys, zs});
    const auto uw = u.window(box, false);
    const auto vw = v.window(box, false);
    doall3(
        u, xs, ys, zs, [&](int i, int j, int k) { uw(i, j, k) += vw(i, j, k); },
        1.0);
    return;
  }
  D3 r(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3, {0, 0, 1});
  resid3(op, u, f, r, opts.overlap);

  // rest3: full weighting in z at even fine planes, injected to coarse.
  D3 g(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists3);
  if (opts.fused_level_remap) {
    // Fused path (mirror of intrp3 below): split the fine residual by plane
    // parity onto the coarse layout, then weight on the coarse side.
    // re(K) = r(2K), ro(K) = r(2K+1); ro rides copy_strided_dim_halo so the
    // stencil's K-1/K ghosts arrive inside the remap messages — no fine-grid
    // halo exchange of r and no full-size gtmp.  The weighting runs in the
    // unfused path's operation order, so the solution is bit-identical.
    D3 re(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists3);
    D3 ro(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists3, {0, 0, 1});
    if (opts.overlap == Overlap::kOn) {
      // Pipeline the two level remaps: post re's then ro's messages before
      // draining either.  Lane FIFO keeps each (src, dst, kTagRemap) lane's
      // re slab ahead of its ro slab, matching the blocking order.
      auto ex_re =
          copy_strided_dim_begin(ctx, r, re, 2, /*s_stride=*/2, /*s_off=*/0,
                                 /*d_stride=*/1, /*d_off=*/0, nzc + 1,
                                 opts.remap_order);
      auto ex_ro = copy_strided_dim_halo_begin(
          ctx, r, ro, 2, /*s_stride=*/2, /*s_off=*/1,
          /*d_stride=*/1, /*d_off=*/0, nzc, opts.remap_order);
      ex_re.finish();
      ex_ro.finish();
    } else {
      copy_strided_dim(ctx, r, re, 2, /*s_stride=*/2, /*s_off=*/0,
                       /*d_stride=*/1, /*d_off=*/0, nzc + 1, opts.remap_order);
      copy_strided_dim_halo(ctx, r, ro, 2, /*s_stride=*/2, /*s_off=*/1,
                            /*d_stride=*/1, /*d_off=*/0, nzc, opts.remap_order);
    }
    const Range xs{1, nx - 1}, ys{1, ny - 1}, ks{1, nzc - 1};
    const Box<3> box = owned_box(g, {xs, ys, ks});
    const auto gw = g.window(box, false);
    const auto rew = re.window(box, false);
    const auto row = ro.window(box.widened({0, 0, 1}), true);
    doall3(
        g, xs, ys, ks,
        [&](int i, int j, int K) {
          gw(i, j, K) =
              0.25 * row(i, j, K - 1) + 0.5 * rew(i, j, K) + 0.25 * row(i, j, K);
        },
        4.0);
  } else {
    r.exchange_halo();
    D3 gtmp(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3);
    const Range xs{1, nx - 1}, ys{1, ny - 1}, evens{2, nz - 2, 2};
    const Box<3> box = owned_box(gtmp, {xs, ys, evens});
    const auto gw = gtmp.window(box, false);
    const auto rw = r.window(box.widened({0, 0, 1}), true);
    doall3(
        gtmp, xs, ys, evens,
        [&](int i, int j, int k) {
          gw(i, j, k) =
              0.25 * rw(i, j, k - 1) + 0.5 * rw(i, j, k) + 0.25 * rw(i, j, k + 1);
        },
        4.0);
    copy_strided_dim(ctx, gtmp, g, 2, /*s_stride=*/2, /*s_off=*/0,
                     /*d_stride=*/1, /*d_off=*/0, nzc + 1, opts.remap_order);
  }

  D3 v(ctx, pv, {nx + 1, ny + 1, nzc + 1}, dists3, {0, 1, 1});
  Op3 coarse = op;
  coarse.hz = 2.0 * op.hz;
  for (int c = 0; c < opts.gamma; ++c) {
    mg3_cycle(coarse, v, g, opts);
  }

  // intrp3 (Listing 10): modify even planes, then odd planes.  The fused
  // path delivers vtmp's even-plane ghosts in the remap messages — one
  // redistribution per level switch instead of remap + halo rounds.
  D3 vtmp(ctx, pv, {nx + 1, ny + 1, nz + 1}, dists3, {0, 0, 1});
  const Range xs{1, nx - 1}, ys{1, ny - 1}, evens{2, nz - 2, 2}, odds{1, nz - 1, 2};
  const Box<3> even_box = owned_box(u, {xs, ys, evens});
  const auto ue = u.window(even_box, false);
  const auto ve = vtmp.window(even_box, false);
  auto even_update = [&](int i, int j, int k) { ue(i, j, k) += ve(i, j, k); };
  if (opts.fused_level_remap) {
    copy_strided_dim_halo(ctx, v, vtmp, 2, /*s_stride=*/1, /*s_off=*/0,
                          /*d_stride=*/2, /*d_off=*/0, nzc + 1,
                          opts.remap_order, opts.overlap);
    doall3(u, xs, ys, evens, even_update, 1.0);
  } else if (opts.overlap == Overlap::kOn) {
    copy_strided_dim(ctx, v, vtmp, 2, /*s_stride=*/1, /*s_off=*/0,
                     /*d_stride=*/2, /*d_off=*/0, nzc + 1, opts.remap_order,
                     opts.overlap);
    // The even-plane correction reads only owned vtmp cells, so it can run
    // while the z-halo is in flight; the odd planes (which read the ghosts)
    // follow the wait.
    auto ex = vtmp.exchange_halo_begin();
    doall3(u, xs, ys, evens, even_update, 1.0);
    ex.finish();
  } else {
    copy_strided_dim(ctx, v, vtmp, 2, /*s_stride=*/1, /*s_off=*/0,
                     /*d_stride=*/2, /*d_off=*/0, nzc + 1, opts.remap_order);
    vtmp.exchange_halo();
    doall3(u, xs, ys, evens, even_update, 1.0);
  }
  const Box<3> odd_box = owned_box(u, {xs, ys, odds});
  const auto uo = u.window(odd_box, false);
  const auto vo = vtmp.window(odd_box.widened({0, 0, 1}), true);
  doall3(
      u, xs, ys, odds,
      [&](int i, int j, int k) {
        uo(i, j, k) += 0.5 * (vo(i, j, k - 1) + vo(i, j, k + 1));
      },
      3.0);

  if (opts.post_zebra) {
    mg3_zebra_sweep(op, u, f, 0, opts);
    mg3_zebra_sweep(op, u, f, 1, opts);
  }
}

}  // namespace kali
