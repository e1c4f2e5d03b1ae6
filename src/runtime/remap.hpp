// Strided copies between arrays of different extents/distributions along
// one dimension — the communication core of multigrid restriction and
// interpolation under semi-coarsening (paper §5), where coarse-grid
// ownership does not generally align with fine-grid ownership.
//
//   copy_strided_dim(ctx, src, dst, dim, s_stride, s_off, d_stride, d_off, n)
//     performs, along `dim`:  dst[d_stride*t + d_off] = src[s_stride*t + s_off]
//     for t = 0..n-1, identity on all other dimensions.
//
// Restriction injects  dst_coarse[K] = src_fine[2K]   (s_stride=2, d_stride=1);
// interpolation spreads dst_fine[2K] = src_coarse[K]  (s_stride=1, d_stride=2).
//
// Like redistribute(), the protocol is analytic: messages travel only
// between rank pairs that actually share elements — no counts on the wire,
// no empty-message flood, no all-pairs ownership scan.  Payloads are raw
// values: both sides enumerate their shared elements in row-major order
// (the strided dim mapping is monotone, so source order and destination
// order agree), so no per-element index metadata is needed.  A rank's
// overlap with itself is copied locally, never sent
// (MachineStats::self_msgs(kTagRemap) stays zero), and remote messages are
// issued through the round-structured schedules of machine/schedule.hpp.
//
// Two paths implement the protocol:
//
//  * Box fast path (all dims of both arrays block or star): the transfer
//    set is parameterized by t — along `dim` each rank's owned block maps
//    to a contiguous t-interval, and off-dims intersect as axis-aligned
//    boxes — so peers are enumerated in O(peers) from per-dim owner ranges
//    and payloads are contiguous slabs, with no per-element owner lookups.
//
//  * Per-element owner binning (any cyclic/block-cyclic dim): each side
//    walks its own elements once, computing the unique opposite owner in
//    O(R) per element.  Exposed as copy_strided_dim_binned(): the fallback
//    for cyclic layouts and the differential-test oracle for the box path.
#pragma once

#include <utility>
#include <vector>

#include "machine/message.hpp"  // kTagRemap (reserved-tag registry)
#include "runtime/redistribute.hpp"

namespace kali {

namespace detail {

/// Floor/ceil division for positive divisors and any-sign dividends.
inline int floor_div(int a, int b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
inline int ceil_div(int a, int b) {
  return a >= 0 ? (a + b - 1) / b : -((-a) / b);
}

/// Inclusive interval of transfer steps t; hi < lo means empty.
struct TRange {
  int lo = 0;
  int hi = -1;

  [[nodiscard]] bool empty() const { return hi < lo; }
};

/// Steps t with off + t * stride inside the global range [glo, ghi],
/// clipped to [0, tmax].
inline TRange strided_steps(int glo, int ghi, int off, int stride, int tmax) {
  TRange r;
  r.lo = std::max(0, ceil_div(glo - off, stride));
  r.hi = std::min(tmax, floor_div(ghi - off, stride));
  return r;
}

/// Peer enumeration of the box fast path.  Visits every rank of
/// box-eligible `A` whose receive set intersects the transfer set
/// (`within`'s ranges on off-dims, steps `tr` through off + t * stride
/// along `dim`), passing the rank, the off-dim overlap box, and the step
/// subrange.  O(peers), like for_each_intersecting_peer; ranks whose block
/// skips every strided step (stride larger than the block) are filtered
/// out, identically on both endpoints.  With `expand_halo` (the halo-fused
/// remap, where a receiver's ghost cells arrive in the same messages as its
/// owned cells), each rank's receive set is its owned block expanded by
/// A's halo margins and clipped to the global domain (one extra owner
/// coordinate per side covers the expansion — the caller guarantees no
/// halo is wider than a block); without it, exactly the owned blocks (an
/// existing halo on A is storage margin, not part of the transfer).
template <class T, int R, class Fn>
void strided_peer_walk(const DistArray<T, R>& A, const Box<R>& within,
                       int dim, TRange tr, int off, int stride,
                       bool expand_halo, Fn fn) {
  const int nd = A.view().ndims();
  std::array<int, kMaxProcDims> adim{};  // grid dim -> bound array dim
  for (int d = 0; d < R; ++d) {
    if (A.proc_dim(d) >= 0) {
      adim[static_cast<std::size_t>(A.proc_dim(d))] = d;
    }
  }
  std::array<int, kMaxProcDims> clo{};
  std::array<int, kMaxProcDims> chi{};
  for (int pd = 0; pd < nd; ++pd) {
    const auto upd = static_cast<std::size_t>(pd);
    const int d = adim[upd];
    if (d == dim) {
      clo[upd] = A.map(d).owner(off + tr.lo * stride);
      chi[upd] = A.map(d).owner(off + tr.hi * stride);
    } else {
      const auto ud = static_cast<std::size_t>(d);
      clo[upd] = A.map(d).owner(within.lo[ud]);
      chi[upd] = A.map(d).owner(within.hi[ud]);
    }
    if (expand_halo && A.halo(d) > 0) {  // expansion reaches one owner more
      clo[upd] = std::max(0, clo[upd] - 1);
      chi[upd] = std::min(A.view().extent(pd) - 1, chi[upd] + 1);
    }
  }
  std::array<int, kMaxProcDims> c = clo;
  for (;;) {
    Box<R> b = within;  // star dims of A: peer holds the whole extent
    TRange t = tr;
    bool nonempty = true;
    for (int pd = 0; pd < nd && nonempty; ++pd) {
      const auto upd = static_cast<std::size_t>(pd);
      const int d = adim[upd];
      const int h = expand_halo ? A.halo(d) : 0;
      const int blo = std::max(0, A.map(d).block_lower(c[upd]) - h);
      const int bhi =
          std::min(A.extent(d) - 1, A.map(d).block_upper(c[upd]) + h);
      if (d == dim) {
        t.lo = std::max(t.lo, ceil_div(blo - off, stride));
        t.hi = std::min(t.hi, floor_div(bhi - off, stride));
        nonempty = !t.empty();
      } else {
        const auto ud = static_cast<std::size_t>(d);
        b.lo[ud] = std::max(within.lo[ud], blo);
        b.hi[ud] = std::min(within.hi[ud], bhi);
        nonempty = b.lo[ud] <= b.hi[ud];
      }
    }
    if (nonempty) {
      fn(A.view().rank_of(c), b, t);
    }
    int pd = nd - 1;
    for (; pd >= 0; --pd) {
      const auto upd = static_cast<std::size_t>(pd);
      if (++c[upd] <= chi[upd]) {
        break;
      }
      c[upd] = clo[upd];
    }
    if (pd < 0) {
      return;
    }
  }
}

/// The cells of one slab (off-dim box `b`, steps [t.lo, t.hi]) on one
/// endpoint: dimension `dim` runs through off + t * stride.  Row-major over
/// (b, t) is the agreed wire order — the strided dim mapping is monotone,
/// so source and destination walks pair up cell for cell.
template <int R>
Cells<R> strided_cells(const Box<R>& b, TRange t, int dim, int off, int stride) {
  const auto ud = static_cast<std::size_t>(dim);
  Cells<R> c = cells_of(b);
  c.first[ud] = off + t.lo * stride;
  c.step[ud] = stride;
  c.n[ud] = t.hi - t.lo + 1;
  return c;
}

/// Shared argument validation for both copy_strided_dim implementations.
template <class T, int R>
void check_strided_args(const DistArray<T, R>& src, const DistArray<T, R>& dst,
                        int dim, int s_stride, int s_off, int d_stride,
                        int d_off, int count) {
  for (int d = 0; d < R; ++d) {
    if (d != dim) {
      KALI_CHECK(src.extent(d) == dst.extent(d),
                 "copy_strided_dim: extent mismatch off-dim");
    }
  }
  KALI_CHECK(s_stride >= 1 && d_stride >= 1,
             "copy_strided_dim: strides must be positive");
  KALI_CHECK(count >= 0, "copy_strided_dim: bad count");
  KALI_CHECK(count == 0 || (s_off + (count - 1) * s_stride < src.extent(dim) &&
                            d_off + (count - 1) * d_stride < dst.extent(dim)),
             "copy_strided_dim: range out of bounds");
  KALI_CHECK(count == 0 || (s_off >= 0 && d_off >= 0),
             "copy_strided_dim: negative offset");
}

/// copy_strided_dim_halo's precondition: every block of a halo dim of dst
/// is at least as wide as the halo.
template <class T, int R>
void check_halo_fits(const DistArray<T, R>& dst) {
  for (int d = 0; d < R; ++d) {
    const int h = dst.halo(d);
    if (h > 0) {
      const int np = dst.view().extent(dst.proc_dim(d));
      for (int c = 0; c < np; ++c) {
        KALI_CHECK(dst.map(d).count(c) >= h,
                   "copy_strided_dim_halo: halo wider than a block");
      }
    }
  }
}

/// The calling rank's part of a box-layout strided copy, each transfer
/// listed by the cells it covers on this endpoint.
template <int R>
struct StridedTransfers {
  std::vector<std::pair<int, Cells<R>>> out;  ///< (dst rank, my source cells)
  std::vector<std::pair<int, Cells<R>>> in;   ///< (src rank, my destination cells)
  std::vector<std::pair<Cells<R>, Cells<R>>> self;  ///< self-overlap (from, to)
};

/// Enumerate the transfers in O(peers): the sender walks the receivers
/// whose receive sets meet its owned box, the receiver the senders whose
/// owned boxes meet its receive set.  With `fuse_halo` a receive set is the
/// owned box expanded by dst's halo margins, clipped to the domain (frame
/// cells are never exchanged); otherwise exactly the owned box.
template <class T, int R>
StridedTransfers<R> strided_transfers(Context& ctx, const DistArray<T, R>& src,
                                      const DistArray<T, R>& dst, int dim,
                                      int s_stride, int s_off, int d_stride,
                                      int d_off, int count, bool fuse_halo) {
  const auto ud = static_cast<std::size_t>(dim);
  StridedTransfers<R> x;
  if (src.participating()) {
    const Box<R> mine = owned_box(src);
    const TRange tm =
        strided_steps(mine.lo[ud], mine.hi[ud], s_off, s_stride, count - 1);
    if (!mine.empty() && !tm.empty()) {
      strided_peer_walk(dst, mine, dim, tm, d_off, d_stride, fuse_halo,
                        [&](int rank, const Box<R>& b, TRange t) {
                          if (rank != ctx.rank()) {  // self: receiver side
                            x.out.emplace_back(
                                rank, strided_cells(b, t, dim, s_off, s_stride));
                          }
                        });
    }
  }
  if (dst.participating()) {
    Box<R> mine = owned_box(dst);
    if (fuse_halo) {
      for (int d = 0; d < R; ++d) {
        const auto sd = static_cast<std::size_t>(d);
        mine.lo[sd] = std::max(0, mine.lo[sd] - dst.halo(d));
        mine.hi[sd] = std::min(dst.extent(d) - 1, mine.hi[sd] + dst.halo(d));
      }
    }
    const TRange tm =
        strided_steps(mine.lo[ud], mine.hi[ud], d_off, d_stride, count - 1);
    if (!mine.empty() && !tm.empty()) {
      strided_peer_walk(src, mine, dim, tm, s_off, s_stride,
                        /*expand_halo=*/false,
                        [&](int rank, const Box<R>& b, TRange t) {
                          Cells<R> to = strided_cells(b, t, dim, d_off, d_stride);
                          if (rank == ctx.rank()) {
                            x.self.emplace_back(
                                strided_cells(b, t, dim, s_off, s_stride), to);
                          } else {
                            x.in.emplace_back(rank, to);
                          }
                        });
    }
  }
  return x;
}

/// The blocking box fast path behind copy_strided_dim (`fuse_halo` off)
/// and copy_strided_dim_halo (on, ghost targets written through frame()):
/// copy the self-overlap, then one scheduled exchange of contiguous slabs.
template <class T, int R>
void strided_copy(Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst,
                  int dim, int s_stride, int s_off, int d_stride, int d_off,
                  int count, IssueOrder order, bool fuse_halo) {
  if (!src.participating() && !dst.participating()) {
    return;
  }
  const std::vector<int> members =
      union_members(src.view().ranks(), dst.view().ranks());
  StridedTransfers<R> x = strided_transfers(ctx, src, dst, dim, s_stride, s_off,
                                            d_stride, d_off, count, fuse_halo);
  std::vector<T> buf;
  double unpacked = 0;
  for (const auto& [from, to] : x.self) {
    copy_cells(src, from, dst, to, fuse_halo, buf);
    unpacked += static_cast<double>(to.volume());
  }
  double packed = 0;
  auto send_one = [&](int rank, const Cells<R>& cells) {
    buf.clear();
    pack_cells(src, cells, buf);
    ctx.send_span<T>(rank, kTagRemap, std::span<const T>(buf));
    packed += static_cast<double>(buf.size());
  };
  auto recv_one = [&](int rank, const Cells<R>& cells) {
    auto vals = ctx.recv_vec<T>(rank, kTagRemap);
    KALI_CHECK(vals.size() == static_cast<std::size_t>(cells.volume()),
               fuse_halo ? "copy_strided_dim_halo: slab size mismatch"
                         : "copy_strided_dim: slab size mismatch");
    unpacked += static_cast<double>(
        unpack_cells(dst, cells, fuse_halo, std::span<const T>(vals)));
  };
  issue_exchange(
      members, ctx.rank(), order, x.out, x.in, send_one, recv_one,
      [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); });
}

/// Shared machinery of copy_strided_dim_begin / copy_strided_dim_halo_begin
/// (the Overlap::kOn split-phase forms): post every receive nonblocking in
/// round order, fire the identical sends the blocking path fires in the
/// same round order, charge the pack compute, copy the self-overlap inside
/// the wire window, and hand back a PendingExchange whose finish() waits
/// and unpacks.  `fuse_halo` selects the halo-expanded receive boxes and
/// frame() writes of the fused variant.
template <class T, int R>
[[nodiscard]] PendingExchange strided_copy_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst, int dim,
    int s_stride, int s_off, int d_stride, int d_off, int count,
    IssueOrder order, bool fuse_halo) {
  check_strided_args(src, dst, dim, s_stride, s_off, d_stride, d_off, count);
  KALI_CHECK(src.box_eligible() && dst.box_eligible(),
             "copy_strided_dim_begin: requires block/star layouts");
  if (fuse_halo) {
    check_halo_fits(dst);
  }
  if (count == 0 || (!src.participating() && !dst.participating())) {
    return {};
  }
  const std::vector<int> members =
      union_members(src.view().ranks(), dst.view().ranks());
  StridedTransfers<R> x = strided_transfers(ctx, src, dst, dim, s_stride, s_off,
                                            d_stride, d_off, count, fuse_halo);

  // Post every receive before the first send (round order, zero model
  // cost): the whole wire window is eligible for hiding.
  round_sort(x.in, members, ctx.rank(), order);
  auto stage = std::make_shared<std::vector<std::vector<T>>>(x.in.size());
  auto hs = std::make_shared<std::vector<CommHandle>>();
  hs->reserve(x.in.size());
  for (std::size_t i = 0; i < x.in.size(); ++i) {
    (*stage)[i].resize(static_cast<std::size_t>(x.in[i].second.volume()));
    hs->push_back(
        ctx.irecv_into<T>(x.in[i].first, kTagRemap, std::span<T>((*stage)[i])));
  }

  round_sort(x.out, members, ctx.rank(), order);
  std::vector<T> buf;
  double packed = 0;
  for (auto& [rank, cells] : x.out) {
    buf.clear();
    pack_cells(src, cells, buf);
    // kali-lint: allow(raw-exchange) — split-phase form: receives are already
    // posted as irecvs above, so there is no recv_one closure to pair with.
    ctx.send_span<T>(rank, kTagRemap, std::span<const T>(buf));
    packed += static_cast<double>(buf.size());
  }
  ctx.compute(packed);

  // Self-overlap copies, charged inside the wire window (the blocking path
  // charges the identical element count with the unpack at the end).
  double copied = 0;
  for (const auto& [from, to] : x.self) {
    copy_cells(src, from, dst, to, fuse_halo, buf);
    copied += static_cast<double>(to.volume());
  }
  ctx.compute(copied);

  auto slabs =
      std::make_shared<std::vector<std::pair<int, Cells<R>>>>(std::move(x.in));
  return PendingExchange([&ctx, &dst, stage, hs, slabs, fuse_halo] {
    ctx.wait_all(std::span<CommHandle>(*hs));
    double unpacked = 0;
    for (std::size_t i = 0; i < slabs->size(); ++i) {
      const Cells<R>& cells = (*slabs)[i].second;
      const std::vector<T>& vals = (*stage)[i];
      KALI_CHECK(vals.size() == static_cast<std::size_t>(cells.volume()),
                 "copy_strided_dim: slab size mismatch");
      unpacked += static_cast<double>(
          unpack_cells(dst, cells, fuse_halo, std::span<const T>(vals)));
    }
    ctx.compute(unpacked);
  });
}

}  // namespace detail

/// Split-phase copy_strided_dim (box layouts only): sends fired, receives
/// posted, pack and self-overlap already charged inside the wire window;
/// run the work to hide, then finish().  See PendingExchange.
template <class T, int R>
[[nodiscard]] PendingExchange copy_strided_dim_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst, int dim,
    int s_stride, int s_off, int d_stride, int d_off, int count,
    IssueOrder order = IssueOrder::kRoundSchedule) {
  return detail::strided_copy_begin(ctx, src, dst, dim, s_stride, s_off,
                                    d_stride, d_off, count, order,
                                    /*fuse_halo=*/false);
}

/// Split-phase copy_strided_dim_halo: the fused remap+halo transfer with
/// its wait point exposed — mg2/mg3 post both level-switch remaps with
/// this and drain them together after the interleaved smoothing work.
template <class T, int R>
[[nodiscard]] PendingExchange copy_strided_dim_halo_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst, int dim,
    int s_stride, int s_off, int d_stride, int d_off, int count,
    IssueOrder order = IssueOrder::kRoundSchedule) {
  return detail::strided_copy_begin(ctx, src, dst, dim, s_stride, s_off,
                                    d_stride, d_off, count, order,
                                    /*fuse_halo=*/true);
}

/// The owner-binning implementation of copy_strided_dim: each side walks
/// its own elements once, computing the unique opposite owner per element.
/// Handles every distribution kind; used directly by copy_strided_dim for
/// cyclic/block-cyclic layouts and kept callable as the differential-test
/// oracle for the box fast path.
template <class T, int R>
void copy_strided_dim_binned(Context& ctx, const DistArray<T, R>& src,
                             DistArray<T, R>& dst, int dim, int s_stride,
                             int s_off, int d_stride, int d_off, int count,
                             IssueOrder order = IssueOrder::kRoundSchedule) {
  detail::check_strided_args(src, dst, dim, s_stride, s_off, d_stride, d_off,
                             count);
  const auto ud = static_cast<std::size_t>(dim);
  const bool in_src = src.participating();
  const bool in_dst = dst.participating();
  if ((!in_src && !in_dst) || count == 0) {
    return;
  }
  const std::vector<int> members =
      detail::union_members(src.view().ranks(), dst.view().ranks());

  std::vector<std::pair<int, std::vector<T>>> out;
  std::vector<std::pair<int, std::vector<GIndex<R>>>> in;
  double unpacked = 0;
  if (in_src) {
    const std::vector<int> dst_ranks = dst.view().ranks();
    const std::size_t self_di =
        in_dst ? static_cast<std::size_t>(dst.view().linear_index_of(ctx.rank()))
               : dst_ranks.size();  // sentinel: matches no bin
    std::vector<std::vector<T>> bins(dst_ranks.size());
    src.for_each_owned([&](GIndex<R> g) {
      const int rel = g[ud] - s_off;
      if (rel < 0 || rel % s_stride != 0 || rel / s_stride >= count) {
        return;
      }
      GIndex<R> gd = g;
      gd[ud] = d_off + (rel / s_stride) * d_stride;
      const std::size_t di = detail::owner_index(dst, gd);
      if (di != self_di) {
        bins[di].push_back(src.at(g));
      }
    });
    for (std::size_t pi = 0; pi < bins.size(); ++pi) {
      if (!bins[pi].empty()) {
        out.emplace_back(dst_ranks[pi], std::move(bins[pi]));
      }
    }
  }
  if (in_dst) {
    // Expected elements per source rank, derived from my own slab in the
    // same row-major order the sender packs.
    const std::vector<int> src_ranks = src.view().ranks();
    std::vector<std::vector<GIndex<R>>> expect(src_ranks.size());
    dst.for_each_owned([&](GIndex<R> g) {
      const int rel = g[ud] - d_off;
      if (rel < 0 || rel % d_stride != 0 || rel / d_stride >= count) {
        return;
      }
      GIndex<R> gs = g;
      gs[ud] = s_off + (rel / d_stride) * s_stride;
      expect[detail::owner_index(src, gs)].push_back(g);
    });
    for (std::size_t pi = 0; pi < expect.size(); ++pi) {
      if (expect[pi].empty()) {
        continue;
      }
      if (src_ranks[pi] == ctx.rank()) {
        // Self-overlap: both owners are this rank — local copy.
        for (const GIndex<R>& g : expect[pi]) {
          GIndex<R> gs = g;
          gs[ud] = s_off + ((g[ud] - d_off) / d_stride) * s_stride;
          dst.at(g) = src.at(gs);
        }
        unpacked += static_cast<double>(expect[pi].size());
        continue;
      }
      in.emplace_back(src_ranks[pi], std::move(expect[pi]));
    }
  }
  double packed = 0;
  auto send_one = [&](int rank, const std::vector<T>& vals) {
    ctx.send_span<T>(rank, kTagRemap, std::span<const T>(vals));
    packed += static_cast<double>(vals.size());
  };
  auto recv_one = [&](int rank, const std::vector<GIndex<R>>& idxs) {
    auto vals = ctx.recv_vec<T>(rank, kTagRemap);
    KALI_CHECK(vals.size() == idxs.size(),
               "copy_strided_dim: bin size mismatch");
    for (std::size_t k = 0; k < vals.size(); ++k) {
      dst.at(idxs[k]) = vals[k];
    }
    unpacked += static_cast<double>(vals.size());
  };
  detail::issue_exchange(
      members, ctx.rank(), order, out, in, send_one, recv_one,
      [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); });
}

/// Overlap::kOn routes box-eligible layouts through the split-phase form
/// (copy_strided_dim_begin + finish back to back): identical messages and
/// results, pack and self-overlap hidden in the wire window.  Cyclic
/// layouts fall back to the blocking binned path either way.
template <class T, int R>
void copy_strided_dim(Context& ctx, const DistArray<T, R>& src,
                      DistArray<T, R>& dst, int dim, int s_stride, int s_off,
                      int d_stride, int d_off, int count,
                      IssueOrder order = IssueOrder::kRoundSchedule,
                      Overlap overlap = Overlap::kOff) {
  detail::check_strided_args(src, dst, dim, s_stride, s_off, d_stride, d_off,
                             count);
  if (count == 0) {
    return;
  }

  if (!src.box_eligible() || !dst.box_eligible()) {
    copy_strided_dim_binned(ctx, src, dst, dim, s_stride, s_off, d_stride,
                            d_off, count, order);
    return;
  }
  if (overlap == Overlap::kOn) {
    copy_strided_dim_begin(ctx, src, dst, dim, s_stride, s_off, d_stride,
                           d_off, count, order)
        .finish();
    return;
  }

  detail::strided_copy(ctx, src, dst, dim, s_stride, s_off, d_stride, d_off,
                       count, order, /*fuse_halo=*/false);
}

/// copy_strided_dim + dst.exchange_halo() fused into one scheduled exchange
/// — the batched multigrid level switch.  Receive boxes are dst's owned box
/// *expanded by its halo margins* (clipped to the global domain), so every
/// ghost cell whose global index lies in the strided image arrives in the
/// same messages as the owned cells: one redistribution per level switch
/// instead of a remap round followed by a halo round, roughly halving the
/// level-switch message count.
///
/// Semantics: identical to `copy_strided_dim(...); dst.exchange_halo();` on
/// a freshly constructed dst (which is how multigrid uses it — mg2/mg3's
/// interpolation temporaries).  Ghost cells *outside* the strided image are
/// left untouched, where the separate halo exchange would copy the
/// neighbour's current (for a fresh array: zero) values; out-of-domain
/// frame cells are never written.  Requires block/star layouts on both
/// arrays and halos no wider than dst's thinnest block.
template <class T, int R>
void copy_strided_dim_halo(Context& ctx, const DistArray<T, R>& src,
                           DistArray<T, R>& dst, int dim, int s_stride,
                           int s_off, int d_stride, int d_off, int count,
                           IssueOrder order = IssueOrder::kRoundSchedule,
                           Overlap overlap = Overlap::kOff) {
  if (overlap == Overlap::kOn) {
    copy_strided_dim_halo_begin(ctx, src, dst, dim, s_stride, s_off, d_stride,
                                d_off, count, order)
        .finish();
    return;
  }
  detail::check_strided_args(src, dst, dim, s_stride, s_off, d_stride, d_off,
                             count);
  KALI_CHECK(src.box_eligible() && dst.box_eligible(),
             "copy_strided_dim_halo: requires block/star layouts");
  detail::check_halo_fits(dst);
  if (count == 0) {
    return;
  }
  detail::strided_copy(ctx, src, dst, dim, s_stride, s_off, d_stride, d_off,
                       count, order, /*fuse_halo=*/true);
}

}  // namespace kali
