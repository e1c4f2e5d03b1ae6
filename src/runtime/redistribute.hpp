// Redistribution between arbitrary distributions of the same global array
// — the communication behind "a variety of distribution patterns can be
// tried by simple modifications of this program" (paper §2) and behind
// transpose-style tensor product algorithms (distributed FFT, ADI direction
// switch).
//
// Protocol: no counts are exchanged and no empty messages are sent.  Both
// sides of every transfer derive the pairing analytically from the
// replicated descriptors — the sender knows which destination ranks need a
// piece of its slab, and each receiver knows which source ranks hold a
// piece of *its* slab, so a message travels exactly between the rank pairs
// whose owned index sets intersect.  Payloads carry raw values only: sender
// and receiver enumerate the shared index set in the same row-major global
// order, so no per-element index metadata is needed on the wire.
//
// Two paths implement that protocol:
//
//  * Box intersection (block/star dims only): each rank's owned index set
//    is an axis-aligned box, so the (src-rank, dst-rank) overlap is itself
//    a box computed directly from the DimMap descriptors in O(1) per dim.
//    Peers are enumerated from per-dim owner-coordinate ranges — O(peers),
//    independent of both the element count and the machine size — and
//    payloads are packed as contiguous row-major slabs.
//
//  * Per-dim owner binning (any cyclic/block-cyclic dim): each side walks
//    its own elements once, computing the unique opposite owner rank in
//    O(R) per element (owner() per dim + one rank_of), and bins values by
//    peer.  O(local n + peers) — never the O(local n × P) all-pairs
//    ownership scan of the original implementation.
//
// A rank's overlap with *itself* never touches the network: all paths peel
// the self-intersection off into a direct local copy (one op per element)
// before any message is issued — a self-message would charge send/recv
// overhead plus wire latency for data the rank already owns, and
// MachineStats::self_msgs(kTagRedistData) lets tests assert none slip
// through.
//
// Remote messages are issued through the round-structured schedules of
// machine/schedule.hpp (XOR pairwise exchange for power-of-two
// communicators, latin-square ordering otherwise), so each round is a
// perfect matching over the union of the two views and, with
// MachineConfig::link_contention, no injection or ejection link is
// oversubscribed.  IssueOrder::kPeerOrder preserves the raw enumeration
// order as the naive baseline bench_redistribute compares against;
// IssueOrder::kLockstep walks the same rounds but completes each round's
// send/recv pair before advancing, bounding in-flight mailbox memory to a
// small constant per port instead of O(P) posted slabs.
//
// The original implementation (per-element {index, value} packets, full
// P_src × P_dst message flood including empty messages) is retained as
// redistribute_reference(): it is the oracle for differential tests and the
// baseline bench_redistribute measures the new protocol against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "machine/message.hpp"  // kTagRedistData (reserved-tag registry)
#include "runtime/dist_array.hpp"
#include "runtime/io.hpp"  // linearize / delinearize
#include "machine/schedule.hpp"

namespace kali {

/// Handle of an in-flight split-phase exchange returned by the _begin forms
/// (redistribute_begin, copy_strided_dim_begin, copy_strided_dim_halo_begin):
/// every send is on the wire, every receive is posted nonblocking, and the
/// pack compute plus the self-overlap local copy have already been charged
/// inside the wire window.  Run whatever local work should hide the wire,
/// then finish() — one wait point that completes the receives in canonical
/// (send_time, src, seq) order and unpacks (charging the same unpack compute
/// the blocking path charges).  The source array, destination array, and
/// Context must outlive the handle.  Dropping an active handle leaks the
/// posted operations, which the KALI_CHECK_INVARIANTS build diagnoses when
/// the rank program returns.
class PendingExchange {
 public:
  PendingExchange() = default;

  /// Internal: built by the _begin functions with their completion closure.
  explicit PendingExchange(std::function<void()> fin) : fin_(std::move(fin)) {}

  /// Complete the posted receives and unpack.  Idempotent.
  void finish() {
    if (fin_) {
      std::function<void()> f = std::move(fin_);
      fin_ = nullptr;
      f();
    }
  }

  /// True while receives are still in flight (finish() not yet called).
  [[nodiscard]] bool active() const { return static_cast<bool>(fin_); }

 private:
  std::function<void()> fin_;
};

namespace detail {

/// Row-major linear index (within A.view().ranks()) of the rank owning g,
/// computable by any processor, member or not — descriptors are replicated.
/// Ownership is unique: every grid dimension of the view is bound to
/// exactly one distributed array dimension.  One owner() per dim — the
/// O(R) inner step of the binning path.
template <class T, int R>
std::size_t owner_index(const DistArray<T, R>& A, GIndex<R> g) {
  std::array<int, kMaxProcDims> coord{};
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    if (A.proc_dim(d) >= 0) {
      coord[static_cast<std::size_t>(A.proc_dim(d))] = A.map(d).owner(g[ud]);
    }
  }
  std::size_t lin = 0;
  for (int pd = 0; pd < A.view().ndims(); ++pd) {
    lin = lin * static_cast<std::size_t>(A.view().extent(pd)) +
          static_cast<std::size_t>(coord[static_cast<std::size_t>(pd)]);
  }
  return lin;
}

/// Componentwise intersection; empty iff the boxes are disjoint (or either
/// input was already empty).
template <int R>
Box<R> intersect(const Box<R>& a, const Box<R>& b) {
  Box<R> r;
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    r.lo[ud] = std::max(a.lo[ud], b.lo[ud]);
    r.hi[ud] = std::min(a.hi[ud], b.hi[ud]);
  }
  return r;
}

/// The cells first + t * step, t in [0, n) per dim, of one slab transfer
/// — DistArray::for_each_cell's box.  Both endpoints walk it row-major,
/// which is the wire order they agree on.
template <int R>
struct Cells {
  GIndex<R> first{};
  GIndex<R> step{};
  GIndex<R> n{};

  [[nodiscard]] std::int64_t volume() const {
    std::int64_t v = 1;
    for (int d = 0; d < R; ++d) {
      v *= std::max(0, n[static_cast<std::size_t>(d)]);
    }
    return v;
  }
};

/// Every global index of box b, unit steps.
template <int R>
Cells<R> cells_of(const Box<R>& b) {
  Cells<R> c;
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    c.first[ud] = b.lo[ud];
    c.step[ud] = 1;
    c.n[ud] = b.hi[ud] - b.lo[ud] + 1;
  }
  return c;
}

/// Append A's owned cells c to buf, in wire order.
template <class T, int R>
void pack_cells(const DistArray<T, R>& A, const Cells<R>& c, std::vector<T>& buf) {
  A.for_each_cell(c.first, c.step, c.n, /*ghosts=*/false,
                  [&](const T& v) { buf.push_back(v); });
}

/// Overwrite A's cells c from vals, in wire order; `ghosts` admits halo
/// cells (frame() targets).  Returns the number of cells written.
template <class T, int R>
std::size_t unpack_cells(DistArray<T, R>& A, const Cells<R>& c, bool ghosts,
                         std::span<const T> vals) {
  std::size_t k = 0;
  A.for_each_cell(c.first, c.step, c.n, ghosts, [&](T& cell) { cell = vals[k++]; });
  return k;
}

/// Self-overlap copy: src's cells `from` into dst's cells `to` (equal
/// volumes, paired in wire order), staged through `stage` — the caller's
/// send buffer — like a message that never leaves the rank.
template <class T, int R>
void copy_cells(const DistArray<T, R>& src, const Cells<R>& from,
                DistArray<T, R>& dst, const Cells<R>& to, bool ghosts,
                std::vector<T>& stage) {
  stage.clear();
  pack_cells(src, from, stage);
  unpack_cells(dst, to, ghosts, std::span<const T>(stage));
}

/// Visit every rank of box-eligible `A` whose owned box intersects `within`,
/// passing the rank and the (nonempty) intersection box.  Runs in O(peers):
/// per grid dimension only the owner coordinates of `within`'s bounds are
/// enumerated, and every enumerated coordinate is a true peer (a block
/// owner between owner(lo) and owner(hi) always owns part of [lo, hi]).
template <class T, int R, class Fn>
void for_each_intersecting_peer(const DistArray<T, R>& A, const Box<R>& within,
                                Fn fn) {
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
    clo[upd] = A.map(d).owner(within.lo[static_cast<std::size_t>(d)]);
    chi[upd] = A.map(d).owner(within.hi[static_cast<std::size_t>(d)]);
  }
  std::array<int, kMaxProcDims> c = clo;
  for (;;) {
    Box<R> b = within;  // star dims of A: peer holds the whole extent
    for (int pd = 0; pd < nd; ++pd) {
      const auto upd = static_cast<std::size_t>(pd);
      const int d = adim[upd];
      const auto ud = static_cast<std::size_t>(d);
      b.lo[ud] = std::max(within.lo[ud], A.map(d).block_lower(c[upd]));
      b.hi[ud] = std::min(within.hi[ud], A.map(d).block_upper(c[upd]));
    }
    fn(A.view().rank_of(c), b);
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

/// The calling rank's remote transfers between box layouts: (dst rank,
/// shared box) for every other rank receiving part of my src slab, (src
/// rank, shared box) for every other rank sending into my dst slab.
template <class T, int R>
void box_transfers(Context& ctx, const DistArray<T, R>& src,
                   const DistArray<T, R>& dst,
                   std::vector<std::pair<int, Box<R>>>& out,
                   std::vector<std::pair<int, Box<R>>>& in) {
  if (src.participating() && !owned_box(src).empty()) {
    for_each_intersecting_peer(dst, owned_box(src), [&](int rank, const Box<R>& b) {
      if (rank != ctx.rank()) {
        out.emplace_back(rank, b);
      }
    });
  }
  if (dst.participating() && !owned_box(dst).empty()) {
    for_each_intersecting_peer(src, owned_box(dst), [&](int rank, const Box<R>& b) {
      if (rank != ctx.rank()) {
        in.emplace_back(rank, b);
      }
    });
  }
}

/// The self-overlap of box layouts stays off the network: copy it locally
/// (staged through `stage`).  Returns the number of elements copied.
template <class T, int R>
std::int64_t copy_self_overlap(const DistArray<T, R>& src, DistArray<T, R>& dst,
                               std::vector<T>& stage) {
  if (!src.participating() || !dst.participating()) {
    return 0;
  }
  const Box<R> shared = intersect(owned_box(src), owned_box(dst));
  if (shared.empty()) {
    return 0;
  }
  copy_cells(src, cells_of(shared), dst, cells_of(shared), /*ghosts=*/false,
             stage);
  return shared.volume();
}

}  // namespace detail

template <class T, int R>
[[nodiscard]] PendingExchange redistribute_begin(
    Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst,
    IssueOrder order = IssueOrder::kRoundSchedule);

/// Copy src's contents into dst (same global extents, any distributions /
/// views — the views may even be disjoint rank sets).  Collective over the
/// union of both views' members.  Remote messages are issued in
/// round-schedule order by default; kPeerOrder keeps the raw enumeration
/// order (the naive baseline under link contention).
///
/// Overlap::kOn routes box-eligible layouts through the split-phase form
/// (redistribute_begin + finish back to back): same messages, tags,
/// payloads, and results, but the pack compute and the self-overlap copy
/// land inside the wire window, so their time is hidden.  Callers with
/// real work to hide call redistribute_begin()/finish() around it instead.
/// Layouts with a cyclic dim have no split-phase form and stay blocking.
template <class T, int R>
void redistribute(Context& ctx, const DistArray<T, R>& src, DistArray<T, R>& dst,
                  IssueOrder order = IssueOrder::kRoundSchedule,
                  Overlap overlap = Overlap::kOff) {
  for (int d = 0; d < R; ++d) {
    KALI_CHECK(src.extent(d) == dst.extent(d), "redistribute: extent mismatch");
  }
  if (overlap == Overlap::kOn && src.box_eligible() &&
      dst.box_eligible()) {
    redistribute_begin(ctx, src, dst, order).finish();
    return;
  }
  const bool in_src = src.participating();
  const bool in_dst = dst.participating();
  if (!in_src && !in_dst) {
    return;
  }
  const std::vector<int> members =
      detail::union_members(src.view().ranks(), dst.view().ranks());

  if (src.box_eligible() && dst.box_eligible()) {
    // ---- box-intersection fast path: contiguous slab exchange -----------
    std::vector<T> buf;
    if (const std::int64_t copied = detail::copy_self_overlap(src, dst, buf);
        copied > 0) {
      ctx.compute(static_cast<double>(copied));
    }
    std::vector<std::pair<int, Box<R>>> out;
    std::vector<std::pair<int, Box<R>>> in;
    detail::box_transfers(ctx, src, dst, out, in);
    double packed = 0;
    double unpacked = 0;
    auto send_one = [&](int rank, const Box<R>& b) {
      buf.clear();
      buf.reserve(static_cast<std::size_t>(b.volume()));
      detail::pack_cells(src, detail::cells_of(b), buf);
      ctx.send_span<T>(rank, kTagRedistData, std::span<const T>(buf));
      packed += static_cast<double>(buf.size());
    };
    auto recv_one = [&](int rank, const Box<R>& b) {
      auto vals = ctx.recv_vec<T>(rank, kTagRedistData);
      KALI_CHECK(vals.size() == static_cast<std::size_t>(b.volume()),
                 "redistribute: slab size mismatch");
      unpacked += static_cast<double>(detail::unpack_cells(
          dst, detail::cells_of(b), /*ghosts=*/false, std::span<const T>(vals)));
    };
    detail::issue_exchange(
        members, ctx.rank(), order, out, in, send_one, recv_one,
        [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); });
    return;
  }

  // ---- general path: per-dim owner binning ------------------------------
  // Sender and receiver each walk their own elements once (row-major), so
  // the per-peer value sequences agree element-for-element without any
  // index metadata or count exchange.  Elements whose destination owner is
  // the sender itself are never binned: the receiver side copies them
  // straight from the local source slab.
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
      const std::size_t di = detail::owner_index(dst, g);
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
    const std::vector<int> src_ranks = src.view().ranks();
    std::vector<std::vector<GIndex<R>>> expect(src_ranks.size());
    dst.for_each_owned([&](GIndex<R> g) {
      expect[detail::owner_index(src, g)].push_back(g);
    });
    for (std::size_t pi = 0; pi < expect.size(); ++pi) {
      if (expect[pi].empty()) {
        continue;
      }
      if (src_ranks[pi] == ctx.rank()) {
        // Self-overlap: both owners are this rank — local copy.
        for (const GIndex<R>& g : expect[pi]) {
          dst.at(g) = src.at(g);
        }
        unpacked += static_cast<double>(expect[pi].size());
        continue;
      }
      in.emplace_back(src_ranks[pi], std::move(expect[pi]));
    }
  }
  double packed = 0;
  auto send_one = [&](int rank, const std::vector<T>& vals) {
    ctx.send_span<T>(rank, kTagRedistData, std::span<const T>(vals));
    packed += static_cast<double>(vals.size());
  };
  auto recv_one = [&](int rank, const std::vector<GIndex<R>>& idxs) {
    auto vals = ctx.recv_vec<T>(rank, kTagRedistData);
    KALI_CHECK(vals.size() == idxs.size(), "redistribute: bin size mismatch");
    for (std::size_t k = 0; k < vals.size(); ++k) {
      dst.at(idxs[k]) = vals[k];
    }
    unpacked += static_cast<double>(vals.size());
  };
  detail::issue_exchange(
      members, ctx.rank(), order, out, in, send_one, recv_one,
      [&] { ctx.compute(packed); }, [&] { ctx.compute(unpacked); });
}

/// Split-phase redistribute, the Overlap::kOn machinery: posts a
/// nonblocking receive for every incoming slab (round order, zero model
/// cost), fires the identical sends the blocking path fires in the same
/// round order, charges the pack compute, and performs the self-overlap
/// local copy inside the wire window — then returns with the receives in
/// flight.  finish() completes them at one wait point and unpacks.  Box
/// layouts only (block/star on every dim of both arrays); see
/// redistribute() for the blocking oracle this is proven against.
template <class T, int R>
[[nodiscard]] PendingExchange redistribute_begin(Context& ctx,
                                                 const DistArray<T, R>& src,
                                                 DistArray<T, R>& dst,
                                                 IssueOrder order) {
  for (int d = 0; d < R; ++d) {
    KALI_CHECK(src.extent(d) == dst.extent(d), "redistribute: extent mismatch");
  }
  KALI_CHECK(src.box_eligible() && dst.box_eligible(),
             "redistribute_begin: requires block/star layouts");
  if (!src.participating() && !dst.participating()) {
    return {};
  }
  const std::vector<int> members =
      detail::union_members(src.view().ranks(), dst.view().ranks());

  std::vector<std::pair<int, Box<R>>> out;
  std::vector<std::pair<int, Box<R>>> in;
  detail::box_transfers(ctx, src, dst, out, in);

  // Post every receive before the first send: the whole wire window is
  // eligible for hiding.  shared_ptr storage because the completion
  // closure must be copyable (std::function) and owns the staging.
  detail::round_sort(in, members, ctx.rank(), order);
  auto stage = std::make_shared<std::vector<std::vector<T>>>(in.size());
  auto hs = std::make_shared<std::vector<CommHandle>>();
  hs->reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    (*stage)[i].resize(static_cast<std::size_t>(in[i].second.volume()));
    hs->push_back(ctx.irecv_into<T>(in[i].first, kTagRedistData,
                                    std::span<T>((*stage)[i])));
  }

  detail::round_sort(out, members, ctx.rank(), order);
  std::vector<T> buf;
  double packed = 0;
  for (auto& [rank, b] : out) {
    buf.clear();
    buf.reserve(static_cast<std::size_t>(b.volume()));
    detail::pack_cells(src, detail::cells_of(b), buf);
    // kali-lint: allow(raw-exchange) — split-phase form: receives are already
    // posted as irecvs above, so there is no recv_one closure to pair with.
    ctx.send_span<T>(rank, kTagRedistData, std::span<const T>(buf));
    packed += static_cast<double>(buf.size());
  }
  ctx.compute(packed);

  // Self-overlap local copy, charged inside the wire window (the blocking
  // path charges the identical element count; only its clock slot moves).
  if (const std::int64_t copied = detail::copy_self_overlap(src, dst, buf);
      copied > 0) {
    ctx.compute(static_cast<double>(copied));
  }

  auto slabs = std::make_shared<std::vector<std::pair<int, Box<R>>>>(
      std::move(in));
  return PendingExchange([&ctx, &dst, stage, hs, slabs] {
    ctx.wait_all(std::span<CommHandle>(*hs));
    double unpacked = 0;
    for (std::size_t i = 0; i < slabs->size(); ++i) {
      const Box<R>& b = (*slabs)[i].second;
      const std::vector<T>& vals = (*stage)[i];
      KALI_CHECK(vals.size() == static_cast<std::size_t>(b.volume()),
                 "redistribute: slab size mismatch");
      unpacked += static_cast<double>(detail::unpack_cells(
          dst, detail::cells_of(b), /*ghosts=*/false, std::span<const T>(vals)));
    }
    ctx.compute(unpacked);
  });
}

/// The original "runtime resolution" implementation: every source member
/// tests every owned element against every destination rank (O(local n × P))
/// and sends per-element {index, value} packets to *all* destination ranks,
/// empty lists included.  Kept, unoptimized, as the oracle for differential
/// tests and as the baseline of bench_redistribute — do not use in new code.
/// The one fix it shares with redistribute(): a rank's packets to *itself*
/// are applied locally instead of round-tripping through the mailbox.
template <class T, int R>
void redistribute_reference(Context& ctx, const DistArray<T, R>& src,
                            DistArray<T, R>& dst) {
  GIndex<R> ext{};
  for (int d = 0; d < R; ++d) {
    KALI_CHECK(src.extent(d) == dst.extent(d), "redistribute: extent mismatch");
    ext[static_cast<std::size_t>(d)] = src.extent(d);
  }
  const bool in_src = src.participating();
  const bool in_dst = dst.participating();
  if (!in_src && !in_dst) {
    return;
  }

  struct Packet {
    std::int64_t idx;
    T val;
  };
  std::vector<int> peers = dst.view().ranks();
  std::vector<std::vector<Packet>> outgoing;
  std::vector<Packet> self_pkts;
  if (in_src) {
    outgoing.assign(peers.size(), {});
    src.for_each_owned([&](GIndex<R> g) {
      const std::int64_t f = linearize(src, g);
      for (std::size_t pi = 0; pi < peers.size(); ++pi) {
        const auto coord = dst.view().coord_of(peers[pi]);
        bool owns = true;
        for (int d = 0; d < R && owns; ++d) {
          const int pd = dst.proc_dim(d);
          if (pd >= 0 &&
              dst.map(d).owner(g[static_cast<std::size_t>(d)]) !=
                  (*coord)[static_cast<std::size_t>(pd)]) {
            owns = false;
          }
        }
        if (owns) {
          outgoing[pi].push_back({f, src.at(g)});
        }
      }
    });
    for (std::size_t pi = 0; pi < peers.size(); ++pi) {
      if (peers[pi] == ctx.rank()) {
        self_pkts = std::move(outgoing[pi]);
        continue;
      }
      // kali-lint: allow(raw-exchange) — redistribute_reference is the
      // deliberately-naive all-pairs oracle/baseline; scheduling it would
      // destroy the very behaviour the differential tests benchmark.
      ctx.send_span<Packet>(peers[pi], kTagRedistData,
                            std::span<const Packet>(outgoing[pi]));
    }
    ctx.compute(static_cast<double>([&] {
      std::size_t n = self_pkts.size();
      for (const auto& v : outgoing) {
        n += v.size();
      }
      return n;
    }()));
  }
  if (in_dst) {
    for (int srank : src.view().ranks()) {
      if (srank == ctx.rank()) {
        for (const auto& p : self_pkts) {
          dst.at(detail::delinearize<R>(p.idx, ext)) = p.val;
        }
        ctx.compute(static_cast<double>(self_pkts.size()));
        continue;
      }
      // kali-lint: allow(raw-exchange) — reference-oracle receive (above).
      auto pkts = ctx.recv_vec<Packet>(srank, kTagRedistData);
      for (const auto& p : pkts) {
        dst.at(detail::delinearize<R>(p.idx, ext)) = p.val;
      }
      ctx.compute(static_cast<double>(pkts.size()));
    }
  }
}

}  // namespace kali
