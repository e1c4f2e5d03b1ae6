#include "runtime/doall.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "machine/context.hpp"
#include "runtime/io.hpp"

namespace kali {
namespace {

MachineConfig quiet_config() {
  MachineConfig cfg;
  cfg.recv_timeout_wall = 10.0;
  return cfg;
}

double tag(int i, int j) { return 10.0 * i + j; }

TEST(Doall, CoversRangeExactlyOnce1D) {
  Machine m(4, quiet_config());
  std::mutex mu;
  std::multiset<int> executed;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {19}, {DimDist::block_dist()});
    doall(a, Range{2, 17}, [&](int i) {
      std::lock_guard<std::mutex> lk(mu);
      executed.insert(i);
    });
  });
  ASSERT_EQ(executed.size(), 16u);
  for (int i = 2; i <= 17; ++i) {
    EXPECT_EQ(executed.count(i), 1u) << i;
  }
}

TEST(Doall, NonPositiveStrideFailsLoudlyEverywhere) {
  // Range::contains and the doall strip-miners share one validation point:
  // a non-positive step throws from both instead of silently returning
  // false from one and throwing from the other.
  EXPECT_THROW(((void)Range{0, 10, 0}.contains(3)), Error);
  EXPECT_THROW(((void)Range{0, 10, -2}.contains(0)), Error);
  const DimMap map(DimDist::block_dist(), 8, 2);
  EXPECT_THROW((void)detail::owned_in_range(map, 0, Range{0, 7, 0}), Error);
  EXPECT_THROW((void)detail::owned_in_range(map, 0, Range{0, 7, -1}), Error);
  // ... even for ranges that would otherwise be empty.
  EXPECT_THROW((void)detail::owned_in_range(map, 0, Range{5, 2, 0}), Error);
  // Valid strides keep working.
  EXPECT_TRUE((Range{0, 10, 2}.contains(4)));
  EXPECT_FALSE((Range{0, 10, 2}.contains(5)));
  EXPECT_FALSE((Range{0, 10, 2}.contains(11)));
}

TEST(Doall, RespectsStride) {
  // The zebra loops: doall k = 2, nz-2, 2.
  Machine m(2, quiet_config());
  std::mutex mu;
  std::multiset<int> executed;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()});
    doall(a, Range{2, 14, 2}, [&](int i) {
      std::lock_guard<std::mutex> lk(mu);
      executed.insert(i);
    });
  });
  ASSERT_EQ(executed.size(), 7u);
  for (int i = 2; i <= 14; i += 2) {
    EXPECT_EQ(executed.count(i), 1u);
  }
}

TEST(Doall, InvocationRunsOnOwner) {
  Machine m(4, quiet_config());
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()});
    doall(a, Range{0, 15}, [&](int i) { EXPECT_TRUE(a.owns({i})); });
  });
}

TEST(Doall, CyclicStripMining) {
  Machine m(3, quiet_config());
  std::mutex mu;
  std::multiset<int> executed;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<double> a(ctx, pv, {10}, {DimDist::cyclic()});
    doall(a, Range{1, 8}, [&](int i) {
      EXPECT_TRUE(a.owns({i}));
      std::lock_guard<std::mutex> lk(mu);
      executed.insert(i);
    });
  });
  EXPECT_EQ(executed.size(), 8u);
}

TEST(Doall, BlockCyclicStripMining) {
  Machine m(3, quiet_config());
  std::mutex mu;
  std::multiset<int> executed;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<double> a(ctx, pv, {20}, {DimDist::block_cyclic(2)});
    doall(a, Range{3, 18}, [&](int i) {
      EXPECT_TRUE(a.owns({i}));
      std::lock_guard<std::mutex> lk(mu);
      executed.insert(i);
    });
  });
  ASSERT_EQ(executed.size(), 16u);
  for (int i = 3; i <= 18; ++i) {
    EXPECT_EQ(executed.count(i), 1u) << i;
  }
}

TEST(Doall, JacobiUpdateMatchesSequential) {
  // The Listing 3 doall: updates use copy-in values, not freshly written.
  constexpr int n = 8;
  Machine m(4, quiet_config());
  std::vector<double> parallel_result;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> x(ctx, pv, {n + 1, n + 1},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {1, 1});
    x.fill([](std::array<int, 2> g) { return tag(g[0], g[1]); });
    auto in = x.copy_in();
    doall2(x, Range{1, n - 1}, Range{1, n - 1},
           [&](int i, int j) {
             x(i, j) = 0.25 * (in.at_halo({i + 1, j}) + in.at_halo({i - 1, j}) +
                               in.at_halo({i, j + 1}) + in.at_halo({i, j - 1}));
           },
           4.0);
    auto full = gather_global(x);
    if (ctx.rank() == 0) {
      parallel_result = full;
    }
  });
  // Sequential reference.
  std::vector<double> ref(static_cast<std::size_t>((n + 1) * (n + 1)));
  auto refat = [&](int i, int j) -> double& {
    return ref[static_cast<std::size_t>(i * (n + 1) + j)];
  };
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j <= n; ++j) {
      refat(i, j) = tag(i, j);
    }
  }
  std::vector<double> old = ref;
  auto oldat = [&](int i, int j) {
    return old[static_cast<std::size_t>(i * (n + 1) + j)];
  };
  for (int i = 1; i < n; ++i) {
    for (int j = 1; j < n; ++j) {
      refat(i, j) = 0.25 * (oldat(i + 1, j) + oldat(i - 1, j) +
                            oldat(i, j + 1) + oldat(i, j - 1));
    }
  }
  ASSERT_EQ(parallel_result.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(parallel_result[k], ref[k], 1e-13);
  }
}

TEST(Doall, SliceOwnerExecutesOnWholeProcessorRow) {
  // Listing 7: doall i ... on owner(r(i, *)) — every processor in the
  // owning row executes invocation i.
  Machine m(4, quiet_config());
  std::mutex mu;
  std::multiset<std::pair<int, int>> exec;  // (i, rank)
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> r(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    doall_slice_owner(r, 0, Range{0, 7}, [&](int i) {
      std::lock_guard<std::mutex> lk(mu);
      exec.insert({i, ctx.rank()});
    });
  });
  // Each of 8 rows must be executed by exactly the 2 processors of its row.
  EXPECT_EQ(exec.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    const int prow = i / 4;
    for (int pcol = 0; pcol < 2; ++pcol) {
      EXPECT_EQ(exec.count({i, prow * 2 + pcol}), 1u) << "i=" << i;
    }
  }
}

TEST(Doall, ProcsLoopRunsOncePerMember) {
  Machine m(4, quiet_config());
  std::mutex mu;
  std::multiset<int> ips;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    doall_procs(ctx, pv, [&](int ip) {
      EXPECT_EQ(pv.rank_of1(ip), ctx.rank());
      std::lock_guard<std::mutex> lk(mu);
      ips.insert(ip);
    });
  });
  EXPECT_EQ(ips.size(), 4u);
}

TEST(Doall, ProcsLoopSkipsNonMembers) {
  Machine m(4, quiet_config());
  std::mutex mu;
  int count = 0;
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2, /*base=*/1);  // ranks 1, 2 only
    doall_procs(ctx, pv, [&](int) {
      std::lock_guard<std::mutex> lk(mu);
      ++count;
    });
  });
  EXPECT_EQ(count, 2);
}

TEST(Doall, SumReductionReplicatesResult) {
  Machine m(4, quiet_config());
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2>) { return 1.0; });
    const double s =
        doall2_sum(a, Range{0, 7}, Range{0, 7}, [&](int i, int j) { return a(i, j); });
    EXPECT_DOUBLE_EQ(s, 64.0);  // every member sees the replicated scalar
  });
}

TEST(Doall, ChargesModeledFlops) {
  Machine m(2, quiet_config());
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    doall(a, Range{0, 7}, [](int) {}, 5.0);
  });
  // 8 invocations x 5 flops split across processors.
  EXPECT_DOUBLE_EQ(m.stats().totals().flops, 40.0);
}

TEST(Doall, EmptyRangeExecutesNothing) {
  Machine m(2, quiet_config());
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    doall(a, Range{5, 4}, [](int) { FAIL() << "must not run"; });
  });
}

// --- ring partition ---------------------------------------------------------

/// The ring partition's definition, per index: at least `margin` owned
/// cells between it and every slab face that carries a halo.
template <class T, int R>
bool ring_interior_by_definition(const DistArray<T, R>& A, const GIndex<R>& g,
                                 int margin) {
  for (int d = 0; d < R; ++d) {
    const int i = g[static_cast<std::size_t>(d)];
    if (A.halo(d) > 0 &&
        (i - A.own_lower(d) < margin || A.own_upper(d) - i < margin)) {
      return false;
    }
  }
  return true;
}

/// kInterior then kBoundary visit exactly the blocking doall's indices:
/// each part in the blocking loop's order, each index in the part its
/// definition names, and the two charges summing to the blocking charge.
void check_ring2(const DistArray2<double>& A, Range ri, Range rj, int margin) {
  if (!A.participating()) {
    return;
  }
  using G = GIndex<2>;
  std::vector<G> all;
  doall2(A, ri, rj, [&](int i, int j) { all.push_back({i, j}); });
  std::vector<G> want[2];
  for (const G& g : all) {
    want[ring_interior_by_definition(A, g, margin) ? 0 : 1].push_back(g);
  }
  const double before = A.context().proc().counters().flops;
  std::vector<G> got[2];
  doall2_ring(A, ri, rj, margin, Ring::kInterior,
              [&](int i, int j) { got[0].push_back({i, j}); }, 1.0);
  doall2_ring(A, ri, rj, margin, Ring::kBoundary,
              [&](int i, int j) { got[1].push_back({i, j}); }, 1.0);
  EXPECT_EQ(got[0], want[0]);
  EXPECT_EQ(got[1], want[1]);
  EXPECT_DOUBLE_EQ(A.context().proc().counters().flops - before,
                   static_cast<double>(all.size()));
}

void check_ring3(const DistArray3<double>& A, Range ri, Range rj, Range rk,
                 int margin) {
  if (!A.participating()) {
    return;
  }
  using G = GIndex<3>;
  std::vector<G> all;
  doall3(A, ri, rj, rk, [&](int i, int j, int k) { all.push_back({i, j, k}); });
  std::vector<G> want[2];
  for (const G& g : all) {
    want[ring_interior_by_definition(A, g, margin) ? 0 : 1].push_back(g);
  }
  std::vector<G> got[2];
  doall3_ring(A, ri, rj, rk, margin, Ring::kInterior,
              [&](int i, int j, int k) { got[0].push_back({i, j, k}); });
  doall3_ring(A, ri, rj, rk, margin, Ring::kBoundary,
              [&](int i, int j, int k) { got[1].push_back({i, j, k}); });
  EXPECT_EQ(got[0], want[0]);
  EXPECT_EQ(got[1], want[1]);
}

void check_slice_ring(const DistArray2<double>& A, int dim, Range r, int margin) {
  if (!A.participating()) {
    return;
  }
  std::vector<int> want[2];
  doall_slice_owner(A, dim, r, [&](int i) {
    const bool inside =
        A.halo(dim) == 0 ||
        (i - A.own_lower(dim) >= margin && A.own_upper(dim) - i >= margin);
    want[inside ? 0 : 1].push_back(i);
  });
  std::vector<int> got[2];
  doall_slice_ring(A, dim, r, margin, Ring::kInterior,
                   [&](int i) { got[0].push_back(i); });
  doall_slice_ring(A, dim, r, margin, Ring::kBoundary,
                   [&](int i) { got[1].push_back(i); });
  EXPECT_EQ(got[0], want[0]);
  EXPECT_EQ(got[1], want[1]);
}

TEST(DoallRing, PartitionsTheOwnedSetOnOddProcessorGrids) {
  // 3 x 1 and 1 x 3 grids: uneven blocks (extent 11 over 3 is 4, 4, 3),
  // halo on one dim or both, strided ranges, margins 1 and 2.
  Machine m(3, quiet_config());
  m.run([](Context& ctx) {
    for (const auto& [p0, p1] : {std::pair{3, 1}, std::pair{1, 3}}) {
      DistArray2<double> a(ctx, ProcView::grid2(p0, p1), {11, 10},
                           {DimDist::block_dist(), DimDist::block_dist()}, {1, 1});
      DistArray2<double> b(ctx, ProcView::grid2(p0, p1), {11, 10},
                           {DimDist::block_dist(), DimDist::block_dist()}, {0, 2});
      for (const int margin : {1, 2}) {
        check_ring2(a, Range{0, 10}, Range{0, 9}, margin);
        check_ring2(a, Range{1, 9, 2}, Range{2, 8, 3}, margin);
        check_ring2(b, Range{0, 10}, Range{1, 8}, margin);
        check_slice_ring(a, 0, Range{0, 10}, margin);
        check_slice_ring(b, 1, Range{1, 9, 2}, margin);
      }
    }
    DistArray3<double> c(ctx, ProcView::grid2(3, 1), {5, 11, 4},
                         {DimDist::star(), DimDist::block_dist(),
                          DimDist::block_dist()},
                         {0, 1, 1});
    check_ring3(c, Range{1, 3}, Range{0, 10}, Range{0, 3}, 1);
    check_ring3(c, Range{0, 4, 2}, Range{1, 9, 2}, Range{1, 2}, 2);
  });
}

TEST(DoallRing, SlabThinnerThanTwoMarginsIsAllBoundary) {
  // Extent 7 over 3 ranks is 3, 3, 1 cells: with margin 2 no owned cell
  // is interior anywhere, and the boundary part alone is the blocking loop.
  Machine m(3, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid1(3), {5, 7},
                         {DimDist::star(), DimDist::block_dist()}, {0, 2});
    check_ring2(a, Range{0, 4}, Range{0, 6}, 2);
    check_slice_ring(a, 1, Range{0, 6}, 2);
    int interior = 0;
    doall2_ring(a, Range{0, 4}, Range{0, 6}, 2, Ring::kInterior,
                [&](int, int) { ++interior; });
    EXPECT_EQ(interior, 0);
  });
}

// --- loop boxes -------------------------------------------------------------

/// The bounding box of the indices a loop visited; empty when none.
Box<2> bounding_box(const std::vector<GIndex<2>>& cells) {
  Box<2> b;
  b.hi.fill(-1);
  if (cells.empty()) {
    return b;
  }
  b.lo = b.hi = cells.front();
  for (const GIndex<2>& g : cells) {
    for (std::size_t d = 0; d < 2; ++d) {
      b.lo[d] = std::min(b.lo[d], g[d]);
      b.hi[d] = std::max(b.hi[d], g[d]);
    }
  }
  return b;
}

void expect_same_box(const Box<2>& got, const Box<2>& want) {
  EXPECT_EQ(got.empty(), want.empty());
  if (!want.empty()) {
    EXPECT_EQ(got.lo, want.lo);
    EXPECT_EQ(got.hi, want.hi);
  }
}

TEST(LoopBox, OwnedBoxIsTheBoxTheDoallVisits) {
  // Uneven blocks (11 over 3 is 4, 4, 3), strided ranges, and ranges some
  // rank owns none of.
  Machine m(3, quiet_config());
  m.run([](Context& ctx) {
    for (const auto& [p0, p1] : {std::pair{3, 1}, std::pair{1, 3}}) {
      DistArray2<double> a(ctx, ProcView::grid2(p0, p1), {11, 10},
                           {DimDist::block_dist(), DimDist::block_dist()});
      for (const auto& [ri, rj] :
           {std::pair{Range{0, 10}, Range{0, 9}}, std::pair{Range{1, 9, 2}, Range{2, 8, 3}},
            std::pair{Range{10, 10}, Range{0, 9, 4}}, std::pair{Range{5, 4}, Range{0, 9}}}) {
        std::vector<GIndex<2>> seen;
        doall2(a, ri, rj, [&](int i, int j) { seen.push_back({i, j}); });
        expect_same_box(owned_box(a, {ri, rj}), bounding_box(seen));
      }
    }
    // A non-member's box is empty, and widening keeps an empty box empty.
    DistArray2<double> half(ctx, ProcView::grid1(2), {4, 4},
                            {DimDist::star(), DimDist::block_dist()});
    if (!half.participating()) {
      EXPECT_TRUE(owned_box(half, {Range{0, 3}, Range{0, 3}}).empty());
    }
    EXPECT_TRUE((Box<2>{{0, 5}, {3, 4}}.widened({1, 1}).empty()));
  });
}

TEST(LoopBox, SliceBoxIsTheSliceLoopsShareTimesTheWalkedRange) {
  Machine m(3, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid1(3), {5, 11},
                         {DimDist::star(), DimDist::block_dist()});
    const Range xs{1, 3};  // the dim the body walks itself
    for (const Range r : {Range{0, 10}, Range{1, 9, 2}, Range{10, 10}}) {
      std::vector<GIndex<2>> seen;
      doall_slice_owner(a, 1, r, [&](int j) {
        seen.push_back({xs.lo, j});
        seen.push_back({xs.hi, j});
      });
      expect_same_box(slice_box(a, 1, {xs, r}), bounding_box(seen));
    }
  });
}

}  // namespace
}  // namespace kali
