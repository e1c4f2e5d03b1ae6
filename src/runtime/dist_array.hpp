// Distributed arrays (the paper's `real X(0:np, 0:np) dist (block, block)`).
//
// A DistArray<T, R> is an SPMD object: every member of its ProcView holds
// the descriptor plus its own local slab (with optional halo/ghost margins
// on block-distributed dimensions).  Non-members hold only the descriptor.
//
// Slicing is the paper's key composition mechanism:
//   A.fix(2, k)           ~  u(*, *, k)   — rank drops; the processor view
//                                            is sliced to the owners
//   A.localize(0, lo, n)  ~  v(lo:hi, *)  — a single owner's block becomes
//                                            an undistributed (*) dimension
// Both return views sharing the parent's storage, so kernels called on a
// slice ("distributed procedures") operate on the original data in place.
//
// Indexing is Fortran-listing-flavoured: `A(i, j)` takes *global* indices
// and requires ownership; `A.at_halo(...)` additionally admits ghost cells.
//
// Cost model.  Each at()/at_halo() call of a rank-R array checks
// membership and resolves every block or star dim through the cached slab
// origin — (g - lower) * stride after a range test on the slab (plus halo)
// — so block/star layouts pay O(R) adds and compares per access, no
// division; cyclic and block-cyclic dims go through DimMap's owner/local
// division.  A loop pays the checks once instead, as the KF1 compiler's
// strip-mined doall does: window(box, ghosts) tests a box's two corners
// against the slab and returns a BoxWindow whose accesses cost base +
// sum(g * stride) and nothing else.  The box is the loop's own
// (owned_box/slice_box in doall.hpp), so that one test covers every cell
// the loop touches, in every operand the loop reads or writes.  The
// element bodies of the mg2, mg3 and ADI solvers all run through windows,
// and so do their batched line solves (BoxWindow::lines).
// Per-element at() remains for cyclic and block-cyclic layouts (they have
// no box), the examples, and the transcriptions of the paper's listings
// (jacobi_kf1, adi_var, spline).  for_each_cell, the walker behind every
// box pack and unpack, makes window()'s corner test and then walks the
// box's rows by stride.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/message.hpp"   // kTagHaloBase (reserved-tag registry)
#include "machine/schedule.hpp"  // corner-mode halo issues through rounds
#include "runtime/distribution.hpp"
#include "runtime/proc_view.hpp"

namespace kali {

/// Whether a halo exchange must also fill diagonal corner ghosts.
enum class HaloCorners { kNo, kYes };

/// How corner-mode halo traffic is packed onto the wire.  kCoalesced (the
/// default) concatenates every direction piece bound for the same peer
/// into one kTagHaloCornerPack message, so a rank sends one message per
/// neighbouring peer instead of up to 3^R - 1.  kPerDirection keeps the
/// historical one-message-per-direction-code wire format (tag
/// kTagHaloCornerBase + code); it is the oracle the coalesced path is
/// tested bit-identical against.  Cell contents are identical either way.
enum class HaloWire { kCoalesced, kPerDirection };

/// Index/extent tuple for a rank-R array.  R is signed (Fortran-flavoured)
/// throughout the API; the cast keeps instantiation sites clean under
/// -Wsign-conversion.
template <int R>
using GIndex = std::array<int, static_cast<std::size_t>(R)>;

/// Inclusive box of global indices, [lo, hi] per dim; empty when any hi <
/// lo.  A rank's owned slab (owned_box), a loop's share of its ranges
/// (owned_box/slice_box in doall.hpp, validated by DistArray::window) and
/// the slabs the box redistributions exchange.
template <int R>
struct Box {
  GIndex<R> lo{};
  GIndex<R> hi{};

  [[nodiscard]] bool empty() const {
    for (std::size_t d = 0; d < lo.size(); ++d) {
      if (hi[d] < lo[d]) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::int64_t volume() const {
    if (empty()) {
      return 0;
    }
    std::int64_t v = 1;
    for (std::size_t d = 0; d < lo.size(); ++d) {
      v *= hi[d] - lo[d] + 1;
    }
    return v;
  }

  /// The box grown by reach[d] cells on both sides of dim d — a stencil's
  /// ghost reach around the cells a loop visits.  An empty box stays empty.
  [[nodiscard]] Box widened(const GIndex<R>& reach) const {
    Box b = *this;
    if (!empty()) {
      for (std::size_t d = 0; d < lo.size(); ++d) {
        b.lo[d] -= reach[d];
        b.hi[d] += reach[d];
      }
    }
    return b;
  }
};

template <class T, int R>
class DistArray;

/// Strided 1-D window over local memory; what sequential kernels consume.
template <class T>
struct Strided {
  T* data = nullptr;
  std::ptrdiff_t stride = 1;
  int n = 0;

  T& operator[](int i) const { return data[stride * static_cast<std::ptrdiff_t>(i)]; }

  operator Strided<const T>() const  // NOLINT(google-explicit-constructor)
    requires(!std::is_const_v<T>)
  {
    return {data, stride, n};
  }
};

/// `count` equally spaced lines of equal length over local memory: line l
/// is `first` moved by l * line_stride elements.  What batched sequential
/// kernels consume (ConstTridiag::solve_lines).
template <class T>
struct StridedLines {
  Strided<T> first;
  std::ptrdiff_t line_stride = 0;
  int count = 0;
};

/// A checked box window over a DistArray's local slab, taken with
/// DistArray::window: a data pointer, the offset of global index 0 and one
/// stride per dim, so W(i, j, k) costs base + i*s0 + j*s1 + k*s2 — the
/// per-loop address resolution of the paper's strip-mined doall.  The box
/// is validated once, when the window is taken; under KALI_CHECK_INVARIANTS
/// every access also checks that its index lies in that box and that its
/// offset equals the array's flat_owned/flat_halo.  Non-owning and
/// allocation-free; it must not outlive the array it was taken from.  T is
/// const for a window on a const array.
template <class T, int R>
class BoxWindow {
  static constexpr std::size_t UR = static_cast<std::size_t>(R);

 public:
  BoxWindow() = default;

  T& operator()(int i) const
    requires(R == 1)
  {
    return cell({i});
  }
  T& operator()(int i, int j) const
    requires(R == 2)
  {
    return cell({i, j});
  }
  T& operator()(int i, int j, int k) const
    requires(R == 3)
  {
    return cell({i, j, k});
  }

  /// The validated box (inclusive).
  [[nodiscard]] const Box<R>& box() const { return box_; }

  /// The element stride of dim d.
  [[nodiscard]] std::ptrdiff_t stride(int d) const {
    return stride_[static_cast<std::size_t>(d)];
  }

  /// `count` lines of n cells along dim `along`, the first starting at
  /// cell g and each next one `step` cells further along dim `across` —
  /// a batch for a line kernel.  Base address and strides come from the
  /// window, so no address outside the box is formed: the box is
  /// axis-aligned and the lines evenly spaced, so the batch's two extreme
  /// corners bound every cell, and both are checked against the box.
  /// count <= 0 yields an empty batch.
  [[nodiscard]] StridedLines<T> lines(const GIndex<R>& g, int along, int n,
                                      int across, int step, int count) const {
    if (count <= 0) {
      return {};
    }
    GIndex<R> last = g;
    last[static_cast<std::size_t>(along)] += n - 1;
    last[static_cast<std::size_t>(across)] += (count - 1) * step;
    KALI_CHECK(along != across && n >= 1 && covers(g) && covers(last),
               "window: line batch outside the validated box");
    return {{data_ + offset(g), stride(along), n}, step * stride(across), count};
  }

 private:
  using Array = DistArray<std::remove_const_t<T>, R>;
  friend Array;

  [[nodiscard]] std::ptrdiff_t offset(const GIndex<R>& g) const {
    std::ptrdiff_t f = base_;
    for (std::size_t d = 0; d < UR; ++d) {
      f += static_cast<std::ptrdiff_t>(g[d]) * stride_[d];
    }
    return f;
  }

  [[nodiscard]] bool covers(const GIndex<R>& g) const {
    for (std::size_t d = 0; d < UR; ++d) {
      if (g[d] < box_.lo[d] || g[d] > box_.hi[d]) {
        return false;
      }
    }
    return true;
  }

  T& cell(const GIndex<R>& g) const {
    const std::ptrdiff_t f = offset(g);
    KALI_INVARIANT(covers(g), "window: index outside the validated box");
    KALI_INVARIANT(f == arr_->flat(g, ghosts_),
                   "window: offset disagrees with flat addressing");
    return data_[f];
  }

  T* data_ = nullptr;
  std::ptrdiff_t base_ = 0;  ///< offset of global index (0, ..., 0)
  std::array<std::ptrdiff_t, UR> stride_{};
  Box<R> box_{};
  bool ghosts_ = false;
  const Array* arr_ = nullptr;  ///< for the invariant checks only
};

template <class T, int R>
class DistArray {
  static_assert(R >= 1 && R <= 3, "DistArray supports ranks 1..3");

  static constexpr std::size_t UR = static_cast<std::size_t>(R);

 public:
  using Extents = GIndex<R>;
  using Dists = std::array<DimDist, UR>;
  using Halos = std::array<int, UR>;

  DistArray() = default;

  /// Collective constructor: every member of `view` allocates its slab.
  /// The number of non-star dims must equal view.ndims() (paper rule);
  /// non-star dims bind to processor-grid dims in declaration order.
  DistArray(Context& ctx, const ProcView& view, Extents extents, Dists dists,
            Halos halo = {})
      : ctx_(&ctx), view_(view), extents_(extents), dists_(dists), halo_(halo) {
    int pd = 0;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (dists_[ud].kind == DistKind::kStar) {
        proc_dim_[ud] = -1;
        maps_[ud] = DimMap(dists_[ud], extents_[ud], 1);
        KALI_CHECK(halo_[ud] == 0, "halo only on distributed dims");
      } else {
        KALI_CHECK(pd < view.ndims(),
                   "more distributed dims than processor-array dims");
        proc_dim_[ud] = pd;
        maps_[ud] = DimMap(dists_[ud], extents_[ud], view.extent(pd));
        KALI_CHECK(halo_[ud] == 0 || dists_[ud].kind == DistKind::kBlock,
                   "halo requires a block distribution");
        ++pd;
      }
    }
    KALI_CHECK(pd == view.ndims(),
               "distributed dims must match processor-array dims");

    auto coord = view.coord_of(ctx.rank());
    member_ = coord.has_value();
    if (!member_) {
      return;
    }
    view_coord_ = *coord;
    std::ptrdiff_t size = 1;
    for (int d = R - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      my_coord_[ud] = proc_dim_[ud] < 0
                          ? 0
                          : view_coord_[static_cast<std::size_t>(proc_dim_[ud])];
      lcount_[ud] = maps_[ud].count(my_coord_[ud]);
      lo_[ud] = dists_[ud].kind == DistKind::kBlock
                    ? maps_[ud].block_lower(my_coord_[ud])
                    : 0;
      strides_[ud] = size;
      size *= lcount_[ud] + 2 * halo_[ud];
    }
    store_ = std::make_shared<std::vector<T>>(static_cast<std::size_t>(size), T{});
    offset_ = 0;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      offset_ += static_cast<std::ptrdiff_t>(halo_[ud]) * strides_[ud];
    }
  }

  // ---- metadata -----------------------------------------------------------

  [[nodiscard]] bool participating() const { return member_; }
  [[nodiscard]] const ProcView& view() const { return view_; }
  [[nodiscard]] int extent(int d) const { return extents_[idx(d)]; }
  [[nodiscard]] const DimMap& map(int d) const { return maps_[idx(d)]; }
  [[nodiscard]] DistKind dist_kind(int d) const { return dists_[idx(d)].kind; }
  /// True when every dim is block or star, i.e. every rank's owned index
  /// set is an axis-aligned box — what window() and the box
  /// redistributions require.
  [[nodiscard]] bool box_eligible() const {
    for (std::size_t d = 0; d < UR; ++d) {
      if (!affine(d)) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] int halo(int d) const { return halo_[idx(d)]; }
  [[nodiscard]] int proc_dim(int d) const { return proc_dim_[idx(d)]; }
  [[nodiscard]] Context& context() const {
    KALI_CHECK(ctx_ != nullptr, "uninitialized array");
    return *ctx_;
  }

  /// My processor coordinate along dim d's grid dimension (0 for star dims).
  [[nodiscard]] int my_coord(int d) const {
    require_member();
    return my_coord_[idx(d)];
  }

  /// Communication group over the view (collective helpers).
  [[nodiscard]] Group group() const {
    require_member();
    return view_.group(ctx_->rank());
  }

  // ---- ownership & indexing ----------------------------------------------

  [[nodiscard]] bool owns(Extents g) const {
    if (!member_) {
      return false;
    }
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (g[ud] < 0 || g[ud] >= extents_[ud]) {
        return false;
      }
      if (maps_[ud].owner(g[ud]) != my_coord_[ud]) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] T& at(Extents g) {
    return (*store_)[static_cast<std::size_t>(flat_owned(g))];
  }
  [[nodiscard]] const T& at(Extents g) const {
    return (*store_)[static_cast<std::size_t>(flat_owned(g))];
  }

  /// Read access admitting ghost cells on block dims (within halo width).
  ///
  /// Ghost cells *outside the global domain* are legal too: they are the
  /// "boundary frame" of the paper's Listing 2, where each processor's
  /// (0:m+1, 0:m+1) slab carries boundary data around the distributed
  /// interior.  Frame cells are zero-initialized, never touched by
  /// exchange_halo (no neighbour there), and writable via frame().
  [[nodiscard]] const T& at_halo(Extents g) const {
    return (*store_)[static_cast<std::size_t>(flat_halo(g))];
  }

  /// Writable access to halo/frame cells (e.g. to impose inhomogeneous
  /// Dirichlet values on the boundary frame).
  [[nodiscard]] T& frame(Extents g) {
    return (*store_)[static_cast<std::size_t>(flat_halo(g))];
  }

  // Convenience operators taking global indices.
  T& operator()(int i)
    requires(R == 1)
  {
    return at({i});
  }
  const T& operator()(int i) const
    requires(R == 1)
  {
    return at({i});
  }
  T& operator()(int i, int j)
    requires(R == 2)
  {
    return at({i, j});
  }
  const T& operator()(int i, int j) const
    requires(R == 2)
  {
    return at({i, j});
  }
  T& operator()(int i, int j, int k)
    requires(R == 3)
  {
    return at({i, j, k});
  }
  const T& operator()(int i, int j, int k) const
    requires(R == 3)
  {
    return at({i, j, k});
  }

  /// Owned extent along d for block/star dims: inclusive [lower, upper]
  /// (the paper's `lower`/`upper` intrinsics).
  [[nodiscard]] int own_lower(int d) const {
    require_member();
    const auto ud = idx(d);
    KALI_CHECK(affine(ud), "own_lower requires block or star dist");
    return lo_[ud];
  }
  [[nodiscard]] int own_upper(int d) const {
    return own_lower(d) + local_count(d) - 1;
  }
  [[nodiscard]] int local_count(int d) const {
    require_member();
    return lcount_[idx(d)];
  }

  /// All owned global indices along d, ascending (any distribution).
  [[nodiscard]] std::vector<int> owned(int d) const {
    require_member();
    const auto ud = idx(d);
    return maps_[ud].owned_indices(my_coord_[ud]);
  }

  /// Strided window over the owned elements of a 1-D array.
  [[nodiscard]] Strided<T> local_strided()
    requires(R == 1)
  {
    require_member();
    return {store_->data() + offset_, strides_[0], lcount_[0]};
  }
  [[nodiscard]] Strided<const T> local_strided() const
    requires(R == 1)
  {
    require_member();
    return {store_->data() + offset_, strides_[0], lcount_[0]};
  }

  /// Checked box window over the cells of b (inclusive, global indices):
  /// ghosts admits halo/frame cells (at_halo()/frame() semantics),
  /// otherwise only owned cells (at() semantics).  A non-empty box needs
  /// membership, block or star dims only (cyclic and block-cyclic dims keep
  /// at()), and both corners in the slab — the same corner test
  /// for_each_cell makes; each failure throws with its own message.  An
  /// empty box yields a window nothing may read.  Take b from the loop
  /// that uses the window (owned_box/slice_box in doall.hpp), so this one
  /// test covers every cell the loop can touch.
  [[nodiscard]] BoxWindow<T, R> window(const Box<R>& b, bool ghosts) {
    return open_window<T>(*this, b, ghosts);
  }
  [[nodiscard]] BoxWindow<const T, R> window(const Box<R>& b, bool ghosts) const {
    return open_window<const T>(*this, b, ghosts);
  }

  // ---- fills ----------------------------------------------------------------

  template <class Fn>
  void fill(Fn fn) {
    if (!member_) {
      return;
    }
    for_each_owned([&](Extents g) { at(g) = fn(g); });
  }

  void fill_value(const T& v) {
    fill([&](Extents) { return v; });
  }

  /// Visit every owned element (global indices, row-major order).
  template <class Fn>
  void for_each_owned(Fn fn) const {
    if (!member_) {
      return;
    }
    std::array<std::vector<int>, UR> own;
    for (int d = 0; d < R; ++d) {
      own[static_cast<std::size_t>(d)] = owned(d);
      if (own[static_cast<std::size_t>(d)].empty()) {
        return;  // this member owns no elements (extent < nprocs overshoot)
      }
    }
    Extents g{};
    std::array<std::size_t, UR> pos{};
    for (;;) {
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        g[ud] = own[ud][pos[ud]];
      }
      fn(g);
      int d = R - 1;
      for (; d >= 0; --d) {
        const auto ud = static_cast<std::size_t>(d);
        if (++pos[ud] < own[ud].size()) {
          break;
        }
        pos[ud] = 0;
      }
      if (d < 0) {
        return;
      }
    }
  }

  /// Visit the strided box of cells first + t * step, t in [0, n) per dim,
  /// in row-major order (the wire order of every box pack and unpack),
  /// calling fn(T&) — fn(const T&) on a const array.  `ghosts` admits
  /// halo/frame cells (frame() semantics); otherwise only owned cells
  /// (at() semantics).  No-op when any n[d] <= 0.  Steps may be negative.
  /// When window() accepts the cells' bounding box, the rows are walked
  /// through that window's base and strides, with no per-cell check.
  /// Cyclic layouts and boxes that leave the slab go cell by cell through
  /// at()/frame()'s addressing, so a bad box throws from its first bad
  /// cell, with that accessor's message.
  template <class Fn>
  void for_each_cell(Extents first, Extents step, Extents n, bool ghosts, Fn fn) {
    walk_cells(*this, first, step, n, ghosts, fn);
  }
  template <class Fn>
  void for_each_cell(Extents first, Extents step, Extents n, bool ghosts,
                     Fn fn) const {
    walk_cells(*this, first, step, n, ghosts, fn);
  }

  // ---- copy-in/copy-out & halo ---------------------------------------------

  /// Deep copy of the local slab (including halo margins) — the temporary a
  /// KF1 compiler introduces for the doall copy-in/copy-out semantics.
  /// Charges one op per element copied, like the explicit tmpX loop of
  /// Listings 1-2.
  [[nodiscard]] DistArray clone() const {
    DistArray c = *this;
    if (!member_) {
      return c;
    }
    Extents n{};  // the slab's extents, halo margins included
    std::ptrdiff_t size = 1;
    c.offset_ = 0;
    for (int d = R - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      n[ud] = lcount_[ud] + 2 * halo_[ud];
      c.strides_[ud] = size;
      c.offset_ += static_cast<std::ptrdiff_t>(halo_[ud]) * size;
      size *= n[ud];
    }
    // The clone is dense and row-major over the full slab, so appending
    // the slab's rows in order lays it out.  A row is copied whole when it
    // is contiguous here, cell by cell when *this is a slice that strides
    // it.
    auto store = std::make_shared<std::vector<T>>();
    store->reserve(static_cast<std::size_t>(size));
    if (size > 0) {
      constexpr std::size_t in = UR - 1;  // the row dim
      const std::ptrdiff_t s = strides_[in];
      Extents t{};
      do {
        Extents rel{};
        for (std::size_t d = 0; d < UR; ++d) {
          rel[d] = t[d] - halo_[d];
        }
        const T* row = store_->data() + rel_flat_of(*this, rel);
        if (s == 1) {
          store->insert(store->end(), row, row + n[in]);
        } else {
          for (std::ptrdiff_t k = 0; k < n[in]; ++k) {
            store->push_back(row[k * s]);
          }
        }
      } while (advance(t, n, R - 1));
    }
    c.store_ = std::move(store);
    ctx_->compute(static_cast<double>(size));
    return c;
  }

  /// clone() + exchange_halo(): the full copy-in of a stencil doall.
  [[nodiscard]] DistArray copy_in(HaloCorners corners = HaloCorners::kNo) const {
    DistArray c = clone();
    c.exchange_halo(corners);
    return c;
  }

  /// Exchange ghost margins with grid neighbours along every block dim with
  /// halo > 0.  Collective over the view.
  ///
  /// HaloCorners::kNo (default): faces cover the owned extent of the other
  /// dims; all sends are posted before any receive — one latency round,
  /// exactly the message pattern of the hand-coded Listing 2.  Sufficient
  /// for star-shaped stencils (all of the paper's algorithms).
  ///
  /// HaloCorners::kYes: diagonal corner ghosts are valid afterwards too
  /// (needed for 9-point-style stencils).  One *single scheduled exchange*
  /// whose peer list includes the diagonal grid neighbours: each direction
  /// vector delta in {-1, 0, +1}^R names one ghost region, sourced straight
  /// from the rank delta away (along the dims that have a neighbour; at a
  /// domain boundary the same-coordinate rank's frame margin is sourced
  /// instead, which is what the old serialized dimension rounds propagated
  /// into the out-of-domain corners).  Cell contents are bit-identical to
  /// the former per-dim implementation, but the messages now issue through
  /// the round-structured CommSchedule (machine/schedule.hpp) in one round
  /// trip instead of R serialized rounds — `order` selects the issue order
  /// under link contention (kPeerOrder is the naive baseline, kLockstep
  /// bounds mailbox depth).  `wire` selects the corner-mode packing: one
  /// coalesced kTagHaloCornerPack message per peer (default) or the
  /// per-direction-code oracle.  `order` and `wire` are ignored in face
  /// mode.
  void exchange_halo(HaloCorners corners = HaloCorners::kNo,
                     IssueOrder order = IssueOrder::kRoundSchedule,
                     HaloWire wire = HaloWire::kCoalesced) {
    if (!member_) {
      return;
    }
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (halo_[ud] > 0) {
        KALI_CHECK(lcount_[ud] >= halo_[ud],
                   "slab thinner than halo; increase extent or reduce procs");
      }
    }
    if (corners == HaloCorners::kYes) {
      exchange_halo_corners(order, wire);
    } else {
      for (int d = 0; d < R; ++d) {
        if (halo_[static_cast<std::size_t>(d)] > 0) {
          exchange_dim_sends(d);
        }
      }
      for (int d = 0; d < R; ++d) {
        if (halo_[static_cast<std::size_t>(d)] > 0) {
          exchange_dim_recvs(d);
        }
      }
    }
  }

  /// In-flight split-phase halo exchange (Overlap::kOn): returned by
  /// exchange_halo_begin() with all receives posted and all sends fired;
  /// finish() completes the receives and unpacks the ghost margins.
  /// Between the two calls the owner may freely compute on anything except
  /// the ghost cells (the interior of the owned slab in particular) —
  /// that work runs while the wire drains, which is the entire point.
  /// finish() must be called before the ghosts are read and before the
  /// rank program returns; a dropped exchange is a dropped handle, which
  /// the KALI_CHECK_INVARIANTS build diagnoses at end of program.
  class HaloExchange {
   public:
    HaloExchange() = default;

    /// Complete the posted receives (canonical key order, one wait point)
    /// and unpack them into the ghost margins; charges the unpack compute.
    /// Idempotent: a second call is a no-op.
    void finish() {
      if (arr_ != nullptr) {
        DistArray* a = arr_;
        arr_ = nullptr;
        a->finish_halo(*this);
      }
    }

    /// True while receives are still in flight (finish() not yet called).
    [[nodiscard]] bool active() const { return arr_ != nullptr; }

   private:
    friend class DistArray;
    struct Pend {
      int dim = 0;
      int side = 0;  ///< 0: low ghost face, 1: high ghost face
      std::vector<T> buf;
      CommHandle h;
    };
    DistArray* arr_ = nullptr;
    std::vector<Pend> pend_;
  };

  /// Post/compute/wait form of the face-mode halo exchange: posts a
  /// nonblocking receive for every incoming ghost face, then fires the same
  /// sends as exchange_halo (same tags, same payloads, same order — the
  /// message ledger is bit-identical to the blocking oracle) and returns
  /// without waiting.  Corner mode has no split-phase form (its ghost
  /// regions feed diagonal dependencies that rarely leave useful interior
  /// work); use exchange_halo(HaloCorners::kYes) there.
  [[nodiscard]] HaloExchange exchange_halo_begin() {
    HaloExchange ex;
    if (!member_) {
      return ex;
    }
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (halo_[ud] > 0) {
        KALI_CHECK(lcount_[ud] >= halo_[ud],
                   "slab thinner than halo; increase extent or reduce procs");
      }
    }
    ex.arr_ = this;
    // Post every receive first — the in-flight window opens before the
    // first send, so all wire time is eligible for hiding.
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (halo_[ud] == 0) {
        continue;
      }
      const int tag_lo = kTagHaloBase + 4 * d;
      const int tag_hi = kTagHaloBase + 4 * d + 1;
      const int left = neighbor_rank(d, -1);
      const int right = neighbor_rank(d, +1);
      std::size_t volume = static_cast<std::size_t>(halo_[ud]);
      for (int o = 0; o < R; ++o) {
        if (o != d) {
          volume *= static_cast<std::size_t>(lcount_[static_cast<std::size_t>(o)]);
        }
      }
      if (left >= 0) {
        auto& p = ex.pend_.emplace_back();
        p.dim = d;
        p.side = 0;
        p.buf.resize(volume);
        p.h = ctx_->irecv_into<T>(left, tag_lo, p.buf);
      }
      if (right >= 0) {
        auto& p = ex.pend_.emplace_back();
        p.dim = d;
        p.side = 1;
        p.buf.resize(volume);
        p.h = ctx_->irecv_into<T>(right, tag_hi, p.buf);
      }
    }
    for (int d = 0; d < R; ++d) {
      if (halo_[static_cast<std::size_t>(d)] > 0) {
        exchange_dim_sends(d);
      }
    }
    return ex;
  }

  // ---- slicing ---------------------------------------------------------------

  /// Fix dimension `dim` to global index g: u(*, *, k) etc.
  /// Collective in the descriptor sense: all callers compute the same
  /// metadata; only owners of the slice keep storage access.
  [[nodiscard]] DistArray<T, R - 1> fix(int dim, int g) const
    requires(R >= 2)
  {
    const auto ud = idx(dim);
    KALI_CHECK(g >= 0 && g < extents_[ud], "fix: index out of range");
    DistArray<T, R - 1> out;
    out.ctx_ = ctx_;
    const bool star = dists_[ud].kind == DistKind::kStar;
    const int removed_pd = proc_dim_[ud];
    if (star) {
      out.view_ = view_;
    } else {
      out.view_ = view_.fix(removed_pd, maps_[ud].owner(g));
    }
    int o = 0;
    for (int d = 0; d < R; ++d) {
      if (d == dim) {
        continue;
      }
      const auto sd = static_cast<std::size_t>(d);
      const auto so = static_cast<std::size_t>(o);
      out.extents_[so] = extents_[sd];
      out.dists_[so] = dists_[sd];
      out.halo_[so] = halo_[sd];
      out.maps_[so] = maps_[sd];
      out.proc_dim_[so] =
          (!star && proc_dim_[sd] > removed_pd) ? proc_dim_[sd] - 1 : proc_dim_[sd];
      ++o;
    }
    out.member_ = member_ && (star || maps_[ud].owner(g) == my_coord_[ud]);
    if (out.member_) {
      const auto vc = out.view_.coord_of(ctx_->rank());
      KALI_CHECK(vc.has_value(), "fix: inconsistent view membership");
      out.view_coord_ = *vc;
      o = 0;
      for (int d = 0; d < R; ++d) {
        if (d == dim) {
          continue;
        }
        const auto sd = static_cast<std::size_t>(d);
        const auto so = static_cast<std::size_t>(o);
        out.my_coord_[so] = my_coord_[sd];
        out.lcount_[so] = lcount_[sd];
        out.lo_[so] = lo_[sd];
        out.strides_[so] = strides_[sd];
        ++o;
      }
      out.store_ = store_;
      const int l = star ? g : maps_[ud].local(g);
      out.offset_ = offset_ + static_cast<std::ptrdiff_t>(l) * strides_[ud];
    }
    return out;
  }

  /// Restrict dim to [lo, lo+len): star dims always; block dims only when
  /// the range lies within one owner's slab, which then becomes a star dim
  /// over the correspondingly fixed processor view (Listing 8's v(lo:hi,*)).
  [[nodiscard]] DistArray localize(int dim, int lo, int len) const {
    const auto ud = idx(dim);
    KALI_CHECK(len >= 1 && lo >= 0 && lo + len <= extents_[ud],
               "localize: bad range");
    DistArray out = *this;
    if (dists_[ud].kind == DistKind::kStar) {
      out.extents_[ud] = len;
      out.maps_[ud] = DimMap(DimDist::star(), len, 1);
      if (member_) {
        out.offset_ = offset_ + static_cast<std::ptrdiff_t>(lo) * strides_[ud];
        out.lcount_[ud] = len;
      }
      return out;
    }
    KALI_CHECK(dists_[ud].kind == DistKind::kBlock,
               "localize requires star or block dim");
    KALI_CHECK(maps_[ud].single_owner_range(lo, lo + len - 1),
               "localize: range spans multiple owners");
    const int c = maps_[ud].owner(lo);
    const int removed_pd = proc_dim_[ud];
    out.view_ = view_.fix(removed_pd, c);
    out.extents_[ud] = len;
    out.dists_[ud] = DimDist::star();
    out.halo_[ud] = 0;
    out.maps_[ud] = DimMap(DimDist::star(), len, 1);
    out.proc_dim_[ud] = -1;
    for (int d = 0; d < R; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      if (d != dim && proc_dim_[sd] > removed_pd) {
        out.proc_dim_[sd] = proc_dim_[sd] - 1;
      }
    }
    out.member_ = member_ && my_coord_[ud] == c;
    if (out.member_) {
      const auto vc = out.view_.coord_of(ctx_->rank());
      KALI_CHECK(vc.has_value(), "localize: inconsistent view membership");
      out.view_coord_ = *vc;
      out.my_coord_[ud] = 0;
      out.lcount_[ud] = len;
      out.lo_[ud] = 0;
      out.offset_ = offset_ + static_cast<std::ptrdiff_t>(maps_[ud].local(lo)) * strides_[ud];
    } else {
      out.store_.reset();
    }
    return out;
  }

 private:
  template <class U, int S>
  friend class DistArray;
  template <class U, int S>
  friend class BoxWindow;

  static std::size_t idx(int d) {
    KALI_CHECK(d >= 0 && d < R, "dimension out of range");
    return static_cast<std::size_t>(d);
  }

  void require_member() const {
    KALI_CHECK(member_, "operation requires view membership");
  }

  /// Block and star dims: the slab is the affine window [lo_, lo_ +
  /// lcount_) of global indices, so an address is (g - lo_) * stride.
  [[nodiscard]] bool affine(std::size_t ud) const {
    return dists_[ud].kind == DistKind::kBlock || dists_[ud].kind == DistKind::kStar;
  }

  [[nodiscard]] std::ptrdiff_t flat_halo(Extents g) const {
    require_member();
    std::ptrdiff_t f = offset_;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      int rel;
      if (affine(ud)) {
        rel = g[ud] - lo_[ud];
        KALI_CHECK(rel >= -halo_[ud] && rel < lcount_[ud] + halo_[ud],
                   dists_[ud].kind == DistKind::kBlock ? "at_halo: outside slab+halo"
                                                       : "at_halo: not owned");
        KALI_INVARIANT(rel < 0 || rel >= lcount_[ud] || slab_agrees(ud, g[ud], rel),
                       "at_halo: slab origin disagrees with DimMap");
      } else {
        KALI_CHECK(g[ud] >= 0 && g[ud] < extents_[ud] &&
                       maps_[ud].owner(g[ud]) == my_coord_[ud],
                   "at_halo: not owned");
        rel = maps_[ud].local(g[ud]);
      }
      f += static_cast<std::ptrdiff_t>(rel) * strides_[ud];
    }
    return f;
  }

  [[nodiscard]] std::ptrdiff_t flat_owned(Extents g) const {
    require_member();
    std::ptrdiff_t f = offset_;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      KALI_CHECK(g[ud] >= 0 && g[ud] < extents_[ud], "index out of range");
      int rel;
      if (affine(ud)) {
        rel = g[ud] - lo_[ud];
        KALI_CHECK(rel >= 0 && rel < lcount_[ud], "index not owned");
        KALI_INVARIANT(slab_agrees(ud, g[ud], rel),
                       "index: slab origin disagrees with DimMap");
      } else {
        KALI_CHECK(maps_[ud].owner(g[ud]) == my_coord_[ud], "index not owned");
        rel = maps_[ud].local(g[ud]);
      }
      f += static_cast<std::ptrdiff_t>(rel) * strides_[ud];
    }
    return f;
  }

  [[nodiscard]] std::ptrdiff_t flat(const Extents& g, bool ghosts) const {
    return ghosts ? flat_halo(g) : flat_owned(g);
  }

  /// The DimMap definition of an owned cell, which the slab-origin test of
  /// the affine dims must reproduce (checked under KALI_CHECK_INVARIANTS).
  [[nodiscard]] bool slab_agrees(std::size_t ud, int g, int rel) const {
    return maps_[ud].owner(g) == my_coord_[ud] && maps_[ud].local(g) == rel;
  }

  /// Whether flat_halo (`ghosts`) or flat_owned accepts g, for a member
  /// whose dims are all affine — the same range tests, without the throw.
  [[nodiscard]] bool in_slab(const Extents& g, bool ghosts) const {
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const int h = ghosts ? halo_[ud] : 0;
      const int rel = g[ud] - lo_[ud];
      if (rel < -h || rel >= lcount_[ud] + h) {
        return false;
      }
    }
    return true;
  }

  /// window()'s test without the throw, for both constnesses (Self is
  /// DistArray or const DistArray): sets w up over b and returns true when
  /// b is empty (nothing may be read) or a member with block/star dims
  /// only has both corners of b in its slab — a box is convex, so every
  /// cell between the corners is in the slab too.  False otherwise.
  template <class Cell, class Self>
  static bool try_window(Self& a, const Box<R>& b, bool ghosts,
                         BoxWindow<Cell, R>& w) {
    w.box_ = b;
    w.ghosts_ = ghosts;
    w.arr_ = &a;
    if (b.empty()) {
      return true;
    }
    if (!a.member_ || !a.box_eligible() || !a.in_slab(b.lo, ghosts) ||
        !a.in_slab(b.hi, ghosts)) {
      return false;
    }
    w.data_ = a.store_->data();
    w.base_ = a.offset_;
    for (std::size_t d = 0; d < UR; ++d) {
      w.base_ -= static_cast<std::ptrdiff_t>(a.lo_[d]) * a.strides_[d];
    }
    w.stride_ = a.strides_;
    return true;
  }

  template <class Cell, class Self>
  static BoxWindow<Cell, R> open_window(Self& a, const Box<R>& b, bool ghosts) {
    BoxWindow<Cell, R> w;
    if (!try_window(a, b, ghosts, w)) {
      a.require_member();
      KALI_CHECK(a.box_eligible(), "window: cyclic or block-cyclic dim; index it with at()");
      KALI_FAIL(ghosts ? "window: box outside slab+halo" : "window: box not owned");
    }
    return w;
  }

  /// Row-major odometer over the leading `dims` dims of t in [0, n);
  /// false once it wraps around.
  static bool advance(Extents& t, const Extents& n, int dims) {
    for (int d = dims - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      if (++t[ud] < n[ud]) {
        return true;
      }
      t[ud] = 0;
    }
    return false;
  }

  /// for_each_cell for both constnesses (Self is DistArray or const
  /// DistArray).  Under KALI_CHECK_INVARIANTS the row walk also checks
  /// every cell's offset against flat_owned/flat_halo.
  template <class Self, class Fn>
  static void walk_cells(Self& a, const Extents& first, const Extents& step,
                         const Extents& n, bool ghosts, Fn& fn) {
    using Cell = std::conditional_t<std::is_const_v<Self>, const T, T>;
    Box<R> box;  // the cells' bounding box; a step may be negative
    for (std::size_t d = 0; d < UR; ++d) {
      if (n[d] <= 0) {
        return;
      }
      const int last = first[d] + (n[d] - 1) * step[d];
      box.lo[d] = std::min(first[d], last);
      box.hi[d] = std::max(first[d], last);
    }
    auto flat = [&](const Extents& t) {
      Extents g{};
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        g[ud] = first[ud] + t[ud] * step[ud];
      }
      return a.flat(g, ghosts);
    };
    Extents t{};
    BoxWindow<Cell, R> w;
    if (!try_window(a, box, ghosts, w)) {
      do {
        const auto f = static_cast<std::size_t>(flat(t));
        fn(static_cast<Cell&>((*a.store_)[f]));
      } while (advance(t, n, R));
      return;
    }
    Cell* data = w.data_;
    const std::ptrdiff_t f0 = w.offset(first);
    std::array<std::ptrdiff_t, UR> jump{};
    for (std::size_t d = 0; d < UR; ++d) {
      jump[d] = static_cast<std::ptrdiff_t>(step[d]) * w.stride_[d];
    }
    constexpr std::size_t in = UR - 1;  // the row dim
    do {
      std::ptrdiff_t f = f0;
      for (std::size_t d = 0; d < in; ++d) {
        f += static_cast<std::ptrdiff_t>(t[d]) * jump[d];
      }
      for (t[in] = 0; t[in] < n[in]; ++t[in], f += jump[in]) {
        KALI_INVARIANT(f == flat(t), "for_each_cell: row walk disagrees with flat addressing");
        fn(data[f]);
      }
      t[in] = 0;
    } while (advance(t, n, R - 1));
  }

  /// Flat position of slab-relative coordinates (rel in [-halo, count+halo)).
  static std::ptrdiff_t rel_flat_of(const DistArray& a, const GIndex<R>& rel) {
    std::ptrdiff_t f = a.offset_;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      f += static_cast<std::ptrdiff_t>(rel[ud]) * a.strides_[ud];
    }
    return f;
  }
  [[nodiscard]] std::ptrdiff_t rel_flat(const GIndex<R>& rel) const {
    return rel_flat_of(*this, rel);
  }

  /// Visit every slab-relative coordinate in [lo, hi) (hi exclusive) in
  /// row-major order; no-op when any extent is empty.
  template <class Fn>
  static void visit_rel_box(const GIndex<R>& lo, const GIndex<R>& hi, Fn fn) {
    GIndex<R> rel{};
    for (int d = 0; d < R; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      rel[sd] = lo[sd];
      if (lo[sd] >= hi[sd]) {
        return;
      }
    }
    for (;;) {
      fn(rel);
      int d = R - 1;
      for (; d >= 0; --d) {
        const auto sd = static_cast<std::size_t>(d);
        if (++rel[sd] < hi[sd]) {
          break;
        }
        rel[sd] = lo[sd];
      }
      if (d < 0) {
        return;
      }
    }
  }

  /// Visit the slab face of thickness `halo_[dim]` at `side` (0: low, 1:
  /// high) — `owned_side` selects owned planes (to send) vs ghost planes
  /// (to receive).  Faces cover the owned extent of the other dims (the
  /// HaloCorners::kNo message pattern).
  template <class Fn>
  void visit_face(int dim, int side, bool owned_side, Fn fn) const {
    const auto ud = static_cast<std::size_t>(dim);
    const int h = halo_[ud];
    GIndex<R> lo{};
    GIndex<R> hi{};
    for (int d = 0; d < R; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      lo[sd] = 0;
      hi[sd] = lcount_[sd];
    }
    if (owned_side) {
      lo[ud] = side == 0 ? 0 : lcount_[ud] - h;
      hi[ud] = side == 0 ? h : lcount_[ud];
    } else {
      lo[ud] = side == 0 ? -h : lcount_[ud];
      hi[ud] = side == 0 ? 0 : lcount_[ud] + h;
    }
    visit_rel_box(lo, hi, fn);
  }

  [[nodiscard]] int neighbor_rank(int dim, int delta) const {
    const auto ud = static_cast<std::size_t>(dim);
    const int pd = proc_dim_[ud];
    const int c = my_coord_[ud] + delta;
    if (c < 0 || c >= view_.extent(pd)) {
      return -1;
    }
    auto coord = view_coord_;
    coord[static_cast<std::size_t>(pd)] = c;
    return view_.rank_of(coord);
  }

  void exchange_dim_sends(int d) {
    const int tag_lo = kTagHaloBase + 4 * d;      // data travelling low->high
    const int tag_hi = kTagHaloBase + 4 * d + 1;  // data travelling high->low
    const int left = neighbor_rank(d, -1);
    const int right = neighbor_rank(d, +1);
    std::vector<T> buf;
    double packed = 0;
    // Send owned low face to left neighbour, owned high face to right.
    if (left >= 0) {
      buf.clear();
      visit_face(d, 0, /*owned_side=*/true,
                 [&](const GIndex<R>& rel) {
                   buf.push_back((*store_)[static_cast<std::size_t>(rel_flat(rel))]);
                 });
      // kali-lint: allow(raw-exchange) — bounded-degree neighbor send (≤2
      // peers per dim), not a dense exchange; no schedule needed.
      ctx_->send_span<T>(left, tag_hi, buf);
      packed += static_cast<double>(buf.size());
    }
    if (right >= 0) {
      buf.clear();
      visit_face(d, 1, /*owned_side=*/true,
                 [&](const GIndex<R>& rel) {
                   buf.push_back((*store_)[static_cast<std::size_t>(rel_flat(rel))]);
                 });
      // kali-lint: allow(raw-exchange) — bounded-degree neighbor send.
      ctx_->send_span<T>(right, tag_lo, buf);
      packed += static_cast<double>(buf.size());
    }
    ctx_->compute(packed);  // pack cost, one op per element moved
  }

  void exchange_dim_recvs(int d) {
    const int tag_lo = kTagHaloBase + 4 * d;
    const int tag_hi = kTagHaloBase + 4 * d + 1;
    const int left = neighbor_rank(d, -1);
    const int right = neighbor_rank(d, +1);
    double packed = 0;
    if (left >= 0) {
      // kali-lint: allow(raw-exchange) — bounded-degree neighbor receive.
      auto in = ctx_->recv_vec<T>(left, tag_lo);
      std::size_t k = 0;
      visit_face(d, 0, /*owned_side=*/false,
                 [&](const GIndex<R>& rel) {
                   (*store_)[static_cast<std::size_t>(rel_flat(rel))] = in[k++];
                 });
      KALI_CHECK(k == in.size(), "halo size mismatch (low)");
      packed += static_cast<double>(k);
    }
    if (right >= 0) {
      // kali-lint: allow(raw-exchange) — bounded-degree neighbor receive.
      auto in = ctx_->recv_vec<T>(right, tag_hi);
      std::size_t k = 0;
      visit_face(d, 1, /*owned_side=*/false,
                 [&](const GIndex<R>& rel) {
                   (*store_)[static_cast<std::size_t>(rel_flat(rel))] = in[k++];
                 });
      KALI_CHECK(k == in.size(), "halo size mismatch (high)");
      packed += static_cast<double>(k);
    }
    ctx_->compute(packed);  // unpack cost
  }

  /// Second half of the split-phase halo: complete every posted receive at
  /// one wait point (the completion batch applies its cost algebra in
  /// canonical (send_time, src, seq) order; see Context::wait_all), then
  /// unpack the staged faces into the ghost margins and charge the same
  /// per-element unpack cost the blocking path charges.
  void finish_halo(HaloExchange& ex) {
    std::vector<CommHandle> hs;
    hs.reserve(ex.pend_.size());
    for (auto& p : ex.pend_) {
      hs.push_back(p.h);
    }
    ctx_->wait_all(hs);
    double packed = 0;
    for (auto& p : ex.pend_) {
      std::size_t k = 0;
      visit_face(p.dim, p.side, /*owned_side=*/false,
                 [&](const GIndex<R>& rel) {
                   (*store_)[static_cast<std::size_t>(rel_flat(rel))] =
                       p.buf[k++];
                 });
      KALI_CHECK(k == p.buf.size(), "halo size mismatch (split-phase)");
      packed += static_cast<double>(k);
    }
    ex.pend_.clear();
    ctx_->compute(packed);  // unpack cost, same rate as the blocking path
  }

  /// The HaloCorners::kYes implementation: one scheduled exchange over the
  /// view covering every ghost region at once, diagonal neighbours
  /// included.
  ///
  /// Each direction vector delta in {-1, 0, +1}^R (nonzero only on dims
  /// with halo > 0) names one disjoint ghost region of the slab margin.
  /// Split delta's nonzero dims by this member's grid position:
  ///   E dims — a neighbour exists in that direction; the region's data is
  ///            that side's *owned face* of the rank one step away,
  ///   U dims — the domain boundary; the region lies outside the global
  ///            index space and carries the *frame margin* of the rank at
  ///            the same coordinate (the value the old serialized per-dim
  ///            rounds propagated into out-of-domain corners).
  /// The region's unique source is therefore the rank at coord + delta|E;
  /// regions with E empty stay untouched (pure frame).  Senders enumerate
  /// the same pairs from the other end: for each delta and each nonzero
  /// dim, the receiver either sits at coord - delta_d (E, gets my owned
  /// face) or at my own coordinate with no rank beyond it (U, gets my
  /// frame margin) — every valid combination with at least one E choice is
  /// a receiver.  Both ends enumerate delta codes ascending and issue
  /// through detail::issue_exchange, so the whole exchange is one
  /// round-scheduled trip instead of R serialized dimension rounds, and no
  /// member ever messages itself.  HaloWire::kPerDirection tags each piece
  /// with delta's base-3 code (kTagHaloCornerBase + code);
  /// HaloWire::kCoalesced concatenates a peer's pieces — in that shared
  /// ascending-code order, so no per-piece header is needed — into one
  /// kTagHaloCornerPack message per peer.
  void exchange_halo_corners(IssueOrder order, HaloWire wire) {
    struct Piece {
      GIndex<R> lo{};  ///< slab-relative box, hi exclusive
      GIndex<R> hi{};
      int tag = 0;
    };
    std::vector<std::pair<int, Piece>> out;
    std::vector<std::pair<int, Piece>> in;

    int ncodes = 1;
    for (int d = 0; d < R; ++d) {
      ncodes *= 3;
    }
    std::array<int, UR> nz{};  // nonzero dims of the current delta
    for (int code = 0; code < ncodes; ++code) {
      GIndex<R> delta{};
      int rest = code;
      int nnz = 0;
      bool eligible = true;
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        delta[ud] = rest % 3 - 1;
        rest /= 3;
        if (delta[ud] != 0) {
          if (halo_[ud] == 0) {
            eligible = false;
            break;
          }
          nz[static_cast<std::size_t>(nnz++)] = d;
        }
      }
      if (!eligible || nnz == 0) {
        continue;
      }
      const int tag = kTagHaloCornerBase + code;

      // Receive side: source = coord + delta along E dims.
      {
        auto coord = view_coord_;
        bool any_e = false;
        bool empty = false;
        Piece p;
        p.tag = tag;
        for (int d = 0; d < R; ++d) {
          const auto ud = static_cast<std::size_t>(d);
          if (delta[ud] == 0) {
            p.lo[ud] = 0;
            p.hi[ud] = lcount_[ud];
            empty = empty || lcount_[ud] == 0;
            continue;
          }
          const int h = halo_[ud];
          p.lo[ud] = delta[ud] < 0 ? -h : lcount_[ud];
          p.hi[ud] = delta[ud] < 0 ? 0 : lcount_[ud] + h;
          if (neighbor_rank(d, delta[ud]) >= 0) {
            any_e = true;
            coord[static_cast<std::size_t>(proc_dim_[ud])] += delta[ud];
          }
        }
        if (any_e && !empty) {
          in.emplace_back(view_.rank_of(coord), p);
        }
      }

      // Send side: every valid E/U choice combination with >= 1 E choice
      // names one receiver pulling direction `delta` from this member.
      for (int mask = 0; mask < (1 << nnz); ++mask) {
        auto coord = view_coord_;
        bool valid = true;
        bool any_e = false;
        bool empty = false;
        Piece p;
        p.tag = tag;
        for (int d = 0; d < R; ++d) {
          const auto ud = static_cast<std::size_t>(d);
          if (delta[ud] == 0) {
            p.lo[ud] = 0;
            p.hi[ud] = lcount_[ud];
            empty = empty || lcount_[ud] == 0;
          }
        }
        for (int b = 0; b < nnz && valid; ++b) {
          const int d = nz[static_cast<std::size_t>(b)];
          const auto ud = static_cast<std::size_t>(d);
          const int h = halo_[ud];
          if ((mask & (1 << b)) == 0) {
            // E choice: receiver one step against delta; gets my owned face.
            valid = neighbor_rank(d, -delta[ud]) >= 0;
            coord[static_cast<std::size_t>(proc_dim_[ud])] -= delta[ud];
            p.lo[ud] = delta[ud] > 0 ? 0 : lcount_[ud] - h;
            p.hi[ud] = delta[ud] > 0 ? h : lcount_[ud];
            any_e = true;
          } else {
            // U choice: receiver at my coordinate beside the domain
            // boundary; gets my frame margin on delta's side.
            valid = neighbor_rank(d, delta[ud]) < 0;
            p.lo[ud] = delta[ud] > 0 ? lcount_[ud] : -h;
            p.hi[ud] = delta[ud] > 0 ? lcount_[ud] + h : 0;
          }
        }
        if (valid && any_e && !empty) {
          out.emplace_back(view_.rank_of(coord), p);
        }
      }
    }

    std::vector<T> buf;
    double packed = 0;
    double unpacked = 0;
    auto pack_piece = [&](const Piece& p) {
      visit_rel_box(p.lo, p.hi, [&](const GIndex<R>& rel) {
        buf.push_back((*store_)[static_cast<std::size_t>(rel_flat(rel))]);
      });
    };
    auto piece_volume = [](const Piece& p) {
      std::size_t volume = 1;
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        volume *= static_cast<std::size_t>(p.hi[ud] - p.lo[ud]);
      }
      return volume;
    };
    auto unpack_piece = [&](const Piece& p, const std::vector<T>& vals,
                            std::size_t& k) {
      visit_rel_box(p.lo, p.hi, [&](const GIndex<R>& rel) {
        (*store_)[static_cast<std::size_t>(rel_flat(rel))] = vals[k++];
      });
    };

    if (wire == HaloWire::kPerDirection) {
      auto send_one = [&](int rank, const Piece& p) {
        buf.clear();
        pack_piece(p);
        ctx_->send_span<T>(rank, p.tag, std::span<const T>(buf));
        packed += static_cast<double>(buf.size());
      };
      auto recv_one = [&](int rank, const Piece& p) {
        auto vals = ctx_->recv_vec<T>(rank, p.tag);
        KALI_CHECK(vals.size() == piece_volume(p),
                   "corner halo size mismatch");
        std::size_t k = 0;
        unpack_piece(p, vals, k);
        unpacked += static_cast<double>(k);
      };
      detail::issue_exchange(
          view_, ctx_->rank(), order, out, in, send_one, recv_one,
          [&] { ctx_->compute(packed); }, [&] { ctx_->compute(unpacked); });
      return;
    }

    // Coalesced wire: group each endpoint's pieces by peer, preserving the
    // ascending-code build order above.  A pair exchanges at most one piece
    // per code (distinct masks name distinct receiver coordinates), so both
    // sides agree on the concatenation order and the receiver can split the
    // pack by its known piece volumes alone.
    std::vector<std::pair<int, std::vector<Piece>>> gout;
    std::vector<std::pair<int, std::vector<Piece>>> gin;
    auto group = [](const std::vector<std::pair<int, Piece>>& flat,
                    std::vector<std::pair<int, std::vector<Piece>>>& grouped) {
      for (const auto& [rank, piece] : flat) {
        std::vector<Piece>* bucket = nullptr;
        for (auto& e : grouped) {
          if (e.first == rank) {
            bucket = &e.second;
            break;
          }
        }
        if (bucket == nullptr) {
          grouped.emplace_back(rank, std::vector<Piece>{});
          bucket = &grouped.back().second;
        }
        bucket->push_back(piece);
      }
    };
    group(out, gout);
    group(in, gin);
    auto send_one = [&](int rank, const std::vector<Piece>& pieces) {
      buf.clear();
      for (const Piece& p : pieces) {
        pack_piece(p);
      }
      ctx_->send_span<T>(rank, kTagHaloCornerPack, std::span<const T>(buf));
      packed += static_cast<double>(buf.size());
    };
    auto recv_one = [&](int rank, const std::vector<Piece>& pieces) {
      auto vals = ctx_->recv_vec<T>(rank, kTagHaloCornerPack);
      std::size_t total = 0;
      for (const Piece& p : pieces) {
        total += piece_volume(p);
      }
      KALI_CHECK(vals.size() == total, "corner halo pack size mismatch");
      std::size_t k = 0;
      for (const Piece& p : pieces) {
        unpack_piece(p, vals, k);
      }
      unpacked += static_cast<double>(k);
    };
    detail::issue_exchange(
        view_, ctx_->rank(), order, gout, gin, send_one, recv_one,
        [&] { ctx_->compute(packed); }, [&] { ctx_->compute(unpacked); });
  }

  Context* ctx_ = nullptr;
  ProcView view_{};
  Extents extents_{};
  Dists dists_{};
  Halos halo_{};
  std::array<DimMap, UR> maps_{};
  std::array<int, UR> proc_dim_{};  ///< grid dim per array dim; -1 for star
  bool member_ = false;
  std::array<int, kMaxProcDims> view_coord_{};
  std::array<int, UR> my_coord_{};
  std::array<int, UR> lcount_{};
  std::array<int, UR> lo_{};  ///< slab origin: first owned global (block), else 0
  std::array<std::ptrdiff_t, UR> strides_{};
  std::ptrdiff_t offset_ = 0;
  std::shared_ptr<std::vector<T>> store_;
};

/// The calling member's owned box: [own_lower(d), own_upper(d)] per dim
/// (the paper's lower/upper intrinsics); block and star dims only.
template <class T, int R>
Box<R> owned_box(const DistArray<T, R>& A) {
  Box<R> b;
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    b.lo[ud] = A.own_lower(d);
    b.hi[ud] = A.own_upper(d);
  }
  return b;
}

template <class T>
using DistArray1 = DistArray<T, 1>;
template <class T>
using DistArray2 = DistArray<T, 2>;
template <class T>
using DistArray3 = DistArray<T, 3>;

}  // namespace kali
