#include "runtime/proc_view.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "machine/schedule.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

TEST(ProcView, Grid1Basics) {
  ProcView v = ProcView::grid1(4);
  EXPECT_EQ(v.ndims(), 1);
  EXPECT_EQ(v.extent(0), 4);
  EXPECT_EQ(v.count(), 4);
  EXPECT_EQ(v.rank_of1(2), 2);
  EXPECT_TRUE(v.contains(3));
  EXPECT_FALSE(v.contains(4));
}

TEST(ProcView, Grid2RowMajor) {
  ProcView v = ProcView::grid2(2, 3);
  EXPECT_EQ(v.count(), 6);
  EXPECT_EQ(v.rank_of2(0, 0), 0);
  EXPECT_EQ(v.rank_of2(0, 2), 2);
  EXPECT_EQ(v.rank_of2(1, 0), 3);
  EXPECT_EQ(v.rank_of2(1, 2), 5);
  auto c = v.coord_of(4);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ((*c)[0], 1);
  EXPECT_EQ((*c)[1], 1);
}

TEST(ProcView, Grid3Coordinates) {
  ProcView v = ProcView::grid3(2, 2, 2);
  EXPECT_EQ(v.count(), 8);
  EXPECT_EQ(v.rank_of({1, 1, 1}), 7);
  EXPECT_EQ(v.rank_of({1, 0, 1}), 5);
  auto c = v.coord_of(6);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ((*c)[0], 1);
  EXPECT_EQ((*c)[1], 1);
  EXPECT_EQ((*c)[2], 0);
}

TEST(ProcView, FixRowProducesRowSlice) {
  // procs(ip, *): fix dim 0.
  ProcView v = ProcView::grid2(3, 4);
  ProcView row = v.fix(0, 1);
  EXPECT_EQ(row.ndims(), 1);
  EXPECT_EQ(row.extent(0), 4);
  EXPECT_EQ(row.ranks(), (std::vector<int>{4, 5, 6, 7}));
}

TEST(ProcView, FixColumnProducesStridedSlice) {
  // procs(*, jp): fix dim 1.
  ProcView v = ProcView::grid2(3, 4);
  ProcView col = v.fix(1, 2);
  EXPECT_EQ(col.ndims(), 1);
  EXPECT_EQ(col.extent(0), 3);
  EXPECT_EQ(col.ranks(), (std::vector<int>{2, 6, 10}));
  EXPECT_TRUE(col.contains(6));
  EXPECT_FALSE(col.contains(5));
  auto c = col.coord_of(10);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ((*c)[0], 2);
}

TEST(ProcView, SubRange) {
  ProcView v = ProcView::grid1(8);
  ProcView s = v.sub(0, 2, 3);
  EXPECT_EQ(s.ranks(), (std::vector<int>{2, 3, 4}));
  EXPECT_THROW((void)v.sub(0, 6, 3), Error);
}

TEST(ProcView, LinearIndexMatchesRanksOrder) {
  ProcView v = ProcView::grid2(2, 3);
  auto rks = v.ranks();
  for (std::size_t i = 0; i < rks.size(); ++i) {
    EXPECT_EQ(v.linear_index_of(rks[i]), static_cast<int>(i));
  }
}

TEST(ProcView, NestedSlicingComposes) {
  // 3-D grid; fix z then y: must land on the expected machine ranks.
  ProcView v = ProcView::grid3(2, 3, 4);
  ProcView plane = v.fix(2, 1);  // (x, y) with z=1
  EXPECT_EQ(plane.ndims(), 2);
  EXPECT_EQ(plane.rank_of2(1, 2), v.rank_of({1, 2, 1}));
  ProcView line = plane.fix(1, 0);  // x with y=0, z=1
  EXPECT_EQ(line.ndims(), 1);
  EXPECT_EQ(line.rank_of1(1), v.rank_of({1, 0, 1}));
}

TEST(ProcView, CoordRoundTripOnSlices) {
  ProcView v = ProcView::grid3(2, 3, 2).fix(1, 2);
  for (int r : v.ranks()) {
    auto c = v.coord_of(r);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(v.rank_of(*c), r);
  }
}

TEST(ProcView, FixOutOfRangeThrows) {
  ProcView v = ProcView::grid2(2, 2);
  EXPECT_THROW((void)v.fix(0, 2), Error);
  EXPECT_THROW((void)v.fix(2, 0), Error);
}

TEST(ProcView, EmptyViewContainsNothing) {
  ProcView v;
  EXPECT_EQ(v.ndims(), 0);
  EXPECT_EQ(v.count(), 0);
  EXPECT_FALSE(v.contains(0));
}

TEST(ProcView, EqualityComparesShape) {
  EXPECT_EQ(ProcView::grid2(2, 3), ProcView::grid2(2, 3));
  EXPECT_FALSE(ProcView::grid2(2, 3) == ProcView::grid2(3, 2));
  EXPECT_FALSE(ProcView::grid1(4) == ProcView::grid1(4, 1));
}

/// Every view reachable from a grid with a nonzero base by one or two
/// fix / sub steps — the shapes runtime code builds and slices.
std::vector<ProcView> sliced_views() {
  std::vector<ProcView> roots{ProcView::grid1(7, 3), ProcView::grid2(4, 5, 11),
                              ProcView::grid3(3, 4, 5, 2)};
  std::vector<ProcView> views;
  auto one_step = [](const ProcView& v) {
    std::vector<ProcView> out;
    for (int d = 0; d < v.ndims(); ++d) {
      for (int i = 0; i < v.extent(d); ++i) {
        out.push_back(v.fix(d, i));
        for (int len = 1; i + len <= v.extent(d); ++len) {
          out.push_back(v.sub(d, i, len));
        }
      }
    }
    return out;
  };
  for (const ProcView& root : roots) {
    views.push_back(root);
    for (const ProcView& v : one_step(root)) {
      views.push_back(v);
      for (const ProcView& w : one_step(v)) {
        views.push_back(w);
      }
    }
  }
  return views;
}

TEST(ProcView, RanksAscendOnEverySlice) {
  // The sorted-communicator contract the corner halo relies on: row-major
  // member order is strictly ascending rank order.
  for (const ProcView& v : sliced_views()) {
    const std::vector<int> ranks = v.ranks();
    ASSERT_EQ(static_cast<int>(ranks.size()), v.count());
    for (std::size_t i = 1; i < ranks.size(); ++i) {
      ASSERT_LT(ranks[i - 1], ranks[i]);
    }
  }
}

TEST(ProcView, ViewAgreesWithTheMaterializedList) {
  static_assert(detail::MemberSequence<ProcView>);
  static_assert(detail::MemberSequence<detail::RankList>);
  for (const ProcView& v : sliced_views()) {
    const std::vector<int> ranks = v.ranks();
    const detail::RankList list(ranks);
    ASSERT_EQ(v.count(), list.count());
    for (int i = 0; i < list.count(); ++i) {
      const int rank = list.rank_at(i);
      EXPECT_EQ(v.rank_at(i), rank);
      EXPECT_EQ(v.linear_index_of(rank), list.linear_index_of(rank));
      EXPECT_EQ(v.linear_index_of(rank), i);
    }
  }
  EXPECT_THROW((void)ProcView::grid2(2, 2).rank_at(4), Error);
  EXPECT_THROW((void)ProcView::grid2(2, 2, 1).linear_index_of(0), Error);
}

}  // namespace
}  // namespace kali
