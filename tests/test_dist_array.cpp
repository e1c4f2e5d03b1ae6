#include "runtime/dist_array.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "machine/context.hpp"
#include "runtime/io.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

MachineConfig quiet_config() {
  MachineConfig cfg;
  cfg.recv_timeout_wall = 10.0;
  return cfg;
}

double tag2(int i, int j) { return 100.0 * i + j; }
double tag3(int i, int j, int k) { return 10000.0 * i + 100.0 * j + k; }

TEST(DistArray, Block1DOwnershipAndAccess) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()});
    EXPECT_TRUE(a.participating());
    EXPECT_EQ(a.local_count(0), 4);
    EXPECT_EQ(a.own_lower(0), ctx.rank() * 4);
    EXPECT_EQ(a.own_upper(0), ctx.rank() * 4 + 3);
    for (int g = a.own_lower(0); g <= a.own_upper(0); ++g) {
      a(g) = 2.0 * g;
    }
    EXPECT_TRUE(a.owns({a.own_lower(0)}));
    EXPECT_FALSE(a.owns({(a.own_lower(0) + 4) % 16}));
    EXPECT_DOUBLE_EQ(a(a.own_upper(0)), 2.0 * a.own_upper(0));
  });
}

TEST(DistArray, NonOwnedAccessThrows) {
  Machine m(2, quiet_config());
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    const int foreign = ctx.rank() == 0 ? 7 : 0;
    a(foreign) = 1.0;  // not owned: must throw
  }),
               Error);
}

TEST(DistArray, DistributedDimsMustMatchViewRank) {
  Machine m(4, quiet_config());
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    // Only one distributed dim over a 2-D view: illegal (paper rule).
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::star()});
  }),
               Error);
}

TEST(DistArray, StarDimReplicatesExtent) {
  Machine m(2, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> a(ctx, pv, {3, 8},
                         {DimDist::star(), DimDist::block_dist()});
    EXPECT_EQ(a.local_count(0), 3);  // whole star extent everywhere
    EXPECT_EQ(a.local_count(1), 4);
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    for (int i = 0; i < 3; ++i) {
      for (int j = a.own_lower(1); j <= a.own_upper(1); ++j) {
        EXPECT_DOUBLE_EQ(a(i, j), tag2(i, j));
      }
    }
  });
}

TEST(DistArray, FillAndGatherGlobalRoundTrip) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {6, 8},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto full = gather_global(a);
    if (ctx.rank() == 0) {
      ASSERT_EQ(full.size(), 48u);
      for (int i = 0; i < 6; ++i) {
        for (int j = 0; j < 8; ++j) {
          EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(i * 8 + j)], tag2(i, j));
        }
      }
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}

TEST(DistArray, GatherAllReplicatesEverywhere) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {12}, {DimDist::block_dist()});
    a.fill([](std::array<int, 1> g) { return 2.5 * g[0]; });
    auto full = gather_all(a);
    ASSERT_EQ(full.size(), 12u);  // every member, not just the root
    for (int g = 0; g < 12; ++g) {
      EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(g)], 2.5 * g);
    }
  });
}

TEST(DistArray, BlockCyclic2DRoundTrip) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {10, 12},
                         {DimDist::block_cyclic(3), DimDist::cyclic()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto full = gather_global(a);
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        for (int j = 0; j < 12; ++j) {
          EXPECT_DOUBLE_EQ(full[static_cast<std::size_t>(i * 12 + j)],
                           tag2(i, j));
        }
      }
    }
  });
}

TEST(DistArray, CyclicDistributionGather) {
  Machine m(3, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(3);
    DistArray1<int> a(ctx, pv, {10}, {DimDist::cyclic()});
    a.fill([](std::array<int, 1> g) { return 7 * g[0]; });
    auto full = gather_global(a);
    if (ctx.rank() == 0) {
      for (int g = 0; g < 10; ++g) {
        EXPECT_EQ(full[static_cast<std::size_t>(g)], 7 * g);
      }
    }
  });
}

TEST(DistArray, HaloExchange1D) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(4);
    DistArray1<double> a(ctx, pv, {16}, {DimDist::block_dist()}, {2});
    a.fill([](std::array<int, 1> g) { return 3.0 * g[0]; });
    a.exchange_halo();
    const int lo = a.own_lower(0);
    const int hi = a.own_upper(0);
    if (lo > 0) {
      EXPECT_DOUBLE_EQ(a.at_halo({lo - 1}), 3.0 * (lo - 1));
      EXPECT_DOUBLE_EQ(a.at_halo({lo - 2}), 3.0 * (lo - 2));
    }
    if (hi < 15) {
      EXPECT_DOUBLE_EQ(a.at_halo({hi + 1}), 3.0 * (hi + 1));
      EXPECT_DOUBLE_EQ(a.at_halo({hi + 2}), 3.0 * (hi + 2));
    }
  });
}

TEST(DistArray, HaloExchange2DIncludesCorners) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {1, 1});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    a.exchange_halo(HaloCorners::kYes);
    // Every interior ghost (including diagonal corners) must be valid.
    const int ilo = a.own_lower(0), ihi = a.own_upper(0);
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    for (int i = std::max(0, ilo - 1); i <= std::min(7, ihi + 1); ++i) {
      for (int j = std::max(0, jlo - 1); j <= std::min(7, jhi + 1); ++j) {
        EXPECT_DOUBLE_EQ(a.at_halo({i, j}), tag2(i, j)) << i << "," << j;
      }
    }
  });
}

TEST(DistArray, HaloExchangeStarModeFillsEdgesInOneRound) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 8},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {1, 1});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    a.exchange_halo();  // HaloCorners::kNo
    // Face ghosts (sharing a row or column with the slab) must be valid.
    const int ilo = a.own_lower(0), ihi = a.own_upper(0);
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    for (int j = jlo; j <= jhi; ++j) {
      if (ilo > 0) {
        EXPECT_DOUBLE_EQ(a.at_halo({ilo - 1, j}), tag2(ilo - 1, j));
      }
      if (ihi < 7) {
        EXPECT_DOUBLE_EQ(a.at_halo({ihi + 1, j}), tag2(ihi + 1, j));
      }
    }
    for (int i = ilo; i <= ihi; ++i) {
      if (jlo > 0) {
        EXPECT_DOUBLE_EQ(a.at_halo({i, jlo - 1}), tag2(i, jlo - 1));
      }
      if (jhi < 7) {
        EXPECT_DOUBLE_EQ(a.at_halo({i, jhi + 1}), tag2(i, jhi + 1));
      }
    }
  });
  // One latency round: every processor sends its 2 faces (interior 2x2
  // grid corner -> 2 neighbours each).
  EXPECT_EQ(m.stats().totals().msgs_sent, 8u);
}

// Frame sentinel: a value unique per (writing rank, global position), so
// tests can tell *whose* boundary frame a corner-mode exchange propagated.
double frame_val(int rank, int i, int j) {
  return 90000.0 + 1000.0 * rank + 20.0 * (i + 2) + (j + 2);
}

TEST(DistArray, CornerHaloMatchesDirectionOracle) {
  // 3x3 grid, mixed halo widths, uneven blocks, frame sentinels.  After
  // the single scheduled corner exchange, every margin cell must hold what
  // the direction algebra prescribes: the owner's value for in-domain
  // ghosts (diagonals included), the source rank's frame sentinel where
  // the direction leaves the domain, and this rank's own untouched
  // sentinel where no source exists — exactly what the old serialized
  // per-dim wide rounds produced.
  const int n0 = 13, n1 = 11;
  Machine m(9, quiet_config());
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(3, 3);
    DistArray2<double> a(ctx, pv, {n0, n1},
                         {DimDist::block_dist(), DimDist::block_dist()},
                         {2, 1});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    const int ilo = a.own_lower(0), ihi = a.own_upper(0);
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    for (int i = ilo - 2; i <= ihi + 2; ++i) {
      for (int j = jlo - 1; j <= jhi + 1; ++j) {
        if (i < 0 || i >= n0 || j < 0 || j >= n1) {
          a.frame({i, j}) = frame_val(ctx.rank(), i, j);
        }
      }
    }
    a.exchange_halo(HaloCorners::kYes);
    const auto coord = *pv.coord_of(ctx.rank());
    for (int i = ilo - 2; i <= ihi + 2; ++i) {
      for (int j = jlo - 1; j <= jhi + 1; ++j) {
        const int di = i < ilo ? -1 : (i > ihi ? 1 : 0);
        const int dj = j < jlo ? -1 : (j > jhi ? 1 : 0);
        if (di == 0 && dj == 0) {
          continue;  // owned
        }
        auto qc = coord;
        bool any_e = false;
        if (di != 0 && coord[0] + di >= 0 && coord[0] + di < 3) {
          qc[0] += di;
          any_e = true;
        }
        if (dj != 0 && coord[1] + dj >= 0 && coord[1] + dj < 3) {
          qc[1] += dj;
          any_e = true;
        }
        const bool in_domain = i >= 0 && i < n0 && j >= 0 && j < n1;
        double expect;
        if (!any_e) {
          expect = frame_val(ctx.rank(), i, j);  // pure frame: untouched
        } else if (in_domain) {
          expect = tag2(i, j);  // the diagonal/face owner's value
        } else {
          expect = frame_val(pv.rank_of(qc), i, j);  // source's frame
        }
        EXPECT_DOUBLE_EQ(a.at_halo({i, j}), expect) << i << "," << j;
      }
    }
  });
}

TEST(DistArray, CornerHalo3DDiagonalGhostsValid) {
  // The mg3 shape: (*, block, block) over a 2-D grid, halo on both
  // distributed dims.  All in-domain ghosts — edges and corners across the
  // two distributed dims, star dim replicated — must be valid after one
  // scheduled exchange.
  const int n = 8;
  Machine m(4, quiet_config());
  m.run([&](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray3<double> a(
        ctx, pv, {3, n, n},
        {DimDist::star(), DimDist::block_dist(), DimDist::block_dist()},
        {0, 1, 1});
    a.fill([](std::array<int, 3> g) { return tag3(g[0], g[1], g[2]); });
    a.exchange_halo(HaloCorners::kYes);
    const int jlo = a.own_lower(1), jhi = a.own_upper(1);
    const int klo = a.own_lower(2), khi = a.own_upper(2);
    for (int i = 0; i < 3; ++i) {
      for (int j = std::max(0, jlo - 1); j <= std::min(n - 1, jhi + 1); ++j) {
        for (int k = std::max(0, klo - 1); k <= std::min(n - 1, khi + 1); ++k) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, j, k}), tag3(i, j, k))
              << i << "," << j << "," << k;
        }
      }
    }
  });
}

TEST(DistArray, CornerHaloNoSelfMessagesAnyOrder) {
  for (IssueOrder order : {IssueOrder::kRoundSchedule, IssueOrder::kPeerOrder,
                           IssueOrder::kLockstep}) {
    SCOPED_TRACE(static_cast<int>(order));
    Machine m(9, quiet_config());
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(3, 3);
      DistArray2<double> a(ctx, pv, {12, 12},
                           {DimDist::block_dist(), DimDist::block_dist()},
                           {1, 1});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      a.exchange_halo(HaloCorners::kYes, order);
      const int ilo = a.own_lower(0), ihi = a.own_upper(0);
      const int jlo = a.own_lower(1), jhi = a.own_upper(1);
      for (int i = std::max(0, ilo - 1); i <= std::min(11, ihi + 1); ++i) {
        for (int j = std::max(0, jlo - 1); j <= std::min(11, jhi + 1); ++j) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, j}), tag2(i, j)) << i << "," << j;
        }
      }
    });
    const MachineStats st = m.stats();
    for (int t = 0; t < 12; ++t) {
      EXPECT_EQ(st.self_msgs(kTagHaloBase + t), 0u);
    }
    for (int t = 0; t < 27; ++t) {
      EXPECT_EQ(st.self_msgs(kTagHaloCornerBase + t), 0u);
    }
    EXPECT_EQ(st.self_msgs(kTagHaloCornerPack), 0u);
    EXPECT_EQ(st.self_msgs_total(), 0u);
  }
}

TEST(DistArray, CornerHaloCoalescedMatchesPerDirectionOracle) {
  // The coalesced wire (one kTagHaloCornerPack message per peer) must
  // produce bit-identical cell contents to the per-direction oracle wire
  // (one kTagHaloCornerBase+code message per piece) on the hardest corner
  // scenario we have: 3x3 grid, mixed halo widths, uneven blocks, frame
  // sentinels — while sending strictly fewer messages.
  const int n0 = 13, n1 = 11;
  auto run_once = [&](HaloWire wire) {
    Machine m(9, quiet_config());
    std::vector<std::vector<double>> slabs(9);
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(3, 3);
      DistArray2<double> a(ctx, pv, {n0, n1},
                           {DimDist::block_dist(), DimDist::block_dist()},
                           {2, 1});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      const int ilo = a.own_lower(0), ihi = a.own_upper(0);
      const int jlo = a.own_lower(1), jhi = a.own_upper(1);
      for (int i = ilo - 2; i <= ihi + 2; ++i) {
        for (int j = jlo - 1; j <= jhi + 1; ++j) {
          if (i < 0 || i >= n0 || j < 0 || j >= n1) {
            a.frame({i, j}) = frame_val(ctx.rank(), i, j);
          }
        }
      }
      a.exchange_halo(HaloCorners::kYes, IssueOrder::kRoundSchedule, wire);
      auto& s = slabs[static_cast<std::size_t>(ctx.rank())];
      for (int i = ilo - 2; i <= ihi + 2; ++i) {
        for (int j = jlo - 1; j <= jhi + 1; ++j) {
          s.push_back(a.at_halo({i, j}));
        }
      }
    });
    return std::pair{m.stats(), slabs};
  };
  const auto [stats_c, slabs_c] = run_once(HaloWire::kCoalesced);
  const auto [stats_d, slabs_d] = run_once(HaloWire::kPerDirection);
  EXPECT_EQ(slabs_c, slabs_d);  // bit-identical, margins included

  // Wire shape: each mode uses only its own tag space, both ledgers
  // balance, and coalescing strictly reduces the message count.
  std::uint64_t dir_msgs = 0;
  std::uint64_t dir_msgs_in_coalesced = 0;
  for (int t = 0; t < 9; ++t) {  // 3^2 direction codes
    dir_msgs += stats_d.sent_msgs(kTagHaloCornerBase + t);
    dir_msgs_in_coalesced += stats_c.sent_msgs(kTagHaloCornerBase + t);
  }
  EXPECT_EQ(stats_d.sent_msgs(kTagHaloCornerPack), 0u);
  EXPECT_EQ(dir_msgs_in_coalesced, 0u);
  // One message per ordered pair of king-adjacent grid neighbours (the
  // pure-E full-delta piece guarantees every such pair communicates):
  // 4 corners x 3 + 4 edges x 5 + 1 center x 8 = 40 on a 3x3 grid.
  EXPECT_EQ(stats_c.sent_msgs(kTagHaloCornerPack), 40u);
  EXPECT_GT(dir_msgs, stats_c.sent_msgs(kTagHaloCornerPack));
  EXPECT_TRUE(stats_c.unmatched_by_tag().empty());
  EXPECT_TRUE(stats_d.unmatched_by_tag().empty());
}

TEST(DistArray, CornerHaloBitIdenticalUnderStoreForwardContention) {
  // Repeated 16-thread contended runs must produce bit-identical clocks
  // and bit-identical cell contents (the scheduled exchange inherits the
  // machine model's determinism design).
  auto run_once = [&]() {
    MachineConfig cfg = quiet_config();
    cfg.topology = Topology::kMesh2D;
    cfg.link_contention = LinkContention::kStoreForward;
    Machine m(16, cfg);
    std::vector<std::vector<double>> slabs(16);
    m.run([&](Context& ctx) {
      ProcView pv = ProcView::grid2(4, 4);
      DistArray2<double> a(ctx, pv, {32, 32},
                           {DimDist::block_dist(), DimDist::block_dist()},
                           {1, 1});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      a.exchange_halo(HaloCorners::kYes);
      auto& s = slabs[static_cast<std::size_t>(ctx.rank())];
      for (int i = a.own_lower(0) - 1; i <= a.own_upper(0) + 1; ++i) {
        for (int j = a.own_lower(1) - 1; j <= a.own_upper(1) + 1; ++j) {
          s.push_back(a.at_halo({i, j}));
        }
      }
    });
    return std::pair{m.stats().clocks, slabs};
  };
  const auto [clocks0, slabs0] = run_once();
  for (int rep = 0; rep < 3; ++rep) {
    const auto [clocks, slabs] = run_once();
    EXPECT_EQ(clocks, clocks0) << "rep " << rep;  // exact, not approximate
    EXPECT_EQ(slabs, slabs0) << "rep " << rep;
  }
}

/// Sliced views with a nonzero base inside a 40-rank machine (a 2x4x5
/// grid): a 3x5 plane, and a 2x3x3 box.
ProcView sliced_plane() {
  return ProcView::grid3(2, 4, 5).fix(0, 1).sub(0, 1, 3);
}
ProcView sliced_box() {
  return ProcView::grid3(2, 4, 5).sub(1, 1, 3).sub(2, 1, 3);
}

/// The corner halo's communication graph on `pv` — one message each way
/// between king-adjacent members, tagged by the sender's direction code —
/// issued through detail::issue_exchange over `make_members()`.  Returns
/// the stats and each rank's event log (kind, peer, tag[, value]).
template <class MakeMembers>
std::pair<MachineStats, std::vector<std::vector<int>>> run_king_exchange(
    const ProcView& pv, IssueOrder order, MakeMembers make_members) {
  Machine m(40, quiet_config());
  std::vector<std::vector<int>> logs(40);
  m.run([&](Context& ctx) {
    const auto coord = pv.coord_of(ctx.rank());
    if (!coord.has_value()) {
      return;
    }
    const int nd = pv.ndims();
    std::vector<std::pair<int, int>> out;  // (peer, tag)
    std::vector<std::pair<int, int>> in;
    int ncodes = 1;
    for (int d = 0; d < nd; ++d) {
      ncodes *= 3;
    }
    for (int code = 0; code < ncodes; ++code) {
      auto nc = *coord;
      int back = 0;  // the code of -delta: the peer's direction back to me
      bool inside = code != (ncodes - 1) / 2;  // skip delta == 0
      for (int d = 0, rest = code, w = 1; d < nd; ++d, rest /= 3, w *= 3) {
        const int delta = rest % 3 - 1;
        nc[static_cast<std::size_t>(d)] += delta;
        back += (1 - delta) * w;
        inside = inside && nc[static_cast<std::size_t>(d)] >= 0 &&
                 nc[static_cast<std::size_t>(d)] < pv.extent(d);
      }
      if (inside) {
        out.emplace_back(pv.rank_of(nc), kTagHaloCornerBase + code);
        in.emplace_back(pv.rank_of(nc), kTagHaloCornerBase + back);
      }
    }
    auto& log = logs[static_cast<std::size_t>(ctx.rank())];
    const auto members = make_members();
    detail::issue_exchange(
        members, ctx.rank(), order, out, in,
        [&](int peer, int tag) {
          ctx.send<int>(peer, tag, 1000 * ctx.rank() + tag);
          log.insert(log.end(), {1, peer, tag});
        },
        [&](int peer, int tag) {
          const int v = ctx.recv<int>(peer, tag);
          log.insert(log.end(), {2, peer, tag, v});
        },
        [&] { ctx.compute(static_cast<double>(out.size())); },
        [&] { ctx.compute(static_cast<double>(in.size())); });
  });
  return {m.stats(), logs};
}

TEST(DistArray, ViewDrivesTheSameExchangeAsTheRankList) {
  // The corner halo hands its view to the schedule as the sorted
  // communicator instead of the materialized, sorted ranks() list.  Driving
  // the halo's exchange graph both ways must issue the same operations in
  // the same order: identical event logs, values, clocks and per-tag
  // ledgers.
  for (const ProcView& pv : {sliced_plane(), sliced_box()}) {
    for (IssueOrder order : {IssueOrder::kRoundSchedule,
                             IssueOrder::kPeerOrder, IssueOrder::kLockstep}) {
      SCOPED_TRACE(std::to_string(pv.ndims()) + "-D order " +
                   std::to_string(static_cast<int>(order)));
      const auto [st_view, logs_view] =
          run_king_exchange(pv, order, [&] { return pv; });
      const auto [st_list, logs_list] = run_king_exchange(pv, order, [&] {
        std::vector<int> members = pv.ranks();
        std::sort(members.begin(), members.end());
        return members;
      });
      EXPECT_EQ(logs_view, logs_list);
      EXPECT_EQ(st_view.clocks, st_list.clocks);
      for (std::size_t r = 0; r < st_view.per_proc.size(); ++r) {
        EXPECT_EQ(st_view.per_proc[r].sent_by_tag,
                  st_list.per_proc[r].sent_by_tag);
        EXPECT_EQ(st_view.per_proc[r].recv_by_tag,
                  st_list.per_proc[r].recv_by_tag);
      }
      EXPECT_TRUE(st_view.unmatched_by_tag().empty());
    }
  }
}

TEST(DistArray, CornerHaloOnSlicedViewsAnyOrder) {
  // exchange_halo(kYes) on sliced views with a nonzero base, under every
  // issue order: all in-domain ghosts valid, ledgers balanced, no
  // self-messages, one pack per ordered pair of king-adjacent members.
  for (IssueOrder order : {IssueOrder::kRoundSchedule, IssueOrder::kPeerOrder,
                           IssueOrder::kLockstep}) {
    SCOPED_TRACE(static_cast<int>(order));
    Machine m2(40, quiet_config());
    m2.run([&](Context& ctx) {
      const ProcView pv = sliced_plane();
      DistArray2<double> a(ctx, pv, {9, 15},
                           {DimDist::block_dist(), DimDist::block_dist()},
                           {1, 1});
      a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
      a.exchange_halo(HaloCorners::kYes, order);
      if (!a.participating()) {
        return;
      }
      for (int i = std::max(0, a.own_lower(0) - 1);
           i <= std::min(8, a.own_upper(0) + 1); ++i) {
        for (int j = std::max(0, a.own_lower(1) - 1);
             j <= std::min(14, a.own_upper(1) + 1); ++j) {
          EXPECT_DOUBLE_EQ(a.at_halo({i, j}), tag2(i, j)) << i << "," << j;
        }
      }
    });
    const MachineStats st2 = m2.stats();
    EXPECT_TRUE(st2.unmatched_by_tag().empty());
    EXPECT_EQ(st2.self_msgs_total(), 0u);
    // 3x5 grid: 2*(2*5) + 2*(3*4) faces + 4*(2*4) diagonals.
    EXPECT_EQ(st2.sent_msgs(kTagHaloCornerPack), 76u);

    Machine m3(40, quiet_config());
    m3.run([&](Context& ctx) {
      const ProcView pv = sliced_box();
      DistArray3<double> a(ctx, pv, {6, 9, 9},
                           {DimDist::block_dist(), DimDist::block_dist(),
                            DimDist::block_dist()},
                           {1, 1, 1});
      a.fill([](std::array<int, 3> g) { return tag3(g[0], g[1], g[2]); });
      a.exchange_halo(HaloCorners::kYes, order);
      if (!a.participating()) {
        return;
      }
      for (int i = std::max(0, a.own_lower(0) - 1);
           i <= std::min(5, a.own_upper(0) + 1); ++i) {
        for (int j = std::max(0, a.own_lower(1) - 1);
             j <= std::min(8, a.own_upper(1) + 1); ++j) {
          for (int k = std::max(0, a.own_lower(2) - 1);
               k <= std::min(8, a.own_upper(2) + 1); ++k) {
            EXPECT_DOUBLE_EQ(a.at_halo({i, j, k}), tag3(i, j, k))
                << i << "," << j << "," << k;
          }
        }
      }
    });
    const MachineStats st3 = m3.stats();
    EXPECT_TRUE(st3.unmatched_by_tag().empty());
    EXPECT_EQ(st3.self_msgs_total(), 0u);
  }
}

TEST(DistArray, CopyInSnapshotsOldValues) {
  Machine m(2, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()}, {1});
    a.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
    auto old = a.copy_in();
    // Mutate the original; the snapshot must be unaffected (copy-in).
    a.fill([](std::array<int, 1>) { return -1.0; });
    for (int g = old.own_lower(0); g <= old.own_upper(0); ++g) {
      EXPECT_DOUBLE_EQ(old(g), 1.0 * g);
    }
    // Snapshot's halo carries the *old* neighbour values.
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(old.at_halo({3}), 3.0);
    }
  });
}

TEST(DistArray, FixDistributedDimSlicesViewToOwners) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> a(ctx, pv, {8, 6},
                         {DimDist::block_dist(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    // Row 5 lives on processor row 1 (blocks of 4): procs (1,0) and (1,1).
    auto row = a.fix(0, 5);
    EXPECT_EQ(row.view().ndims(), 1);
    EXPECT_EQ(row.view().extent(0), 2);
    const bool should_own = pv.coord_of(ctx.rank()).value()[0] == 1;
    EXPECT_EQ(row.participating(), should_own);
    if (should_own) {
      for (int j = row.own_lower(0); j <= row.own_upper(0); ++j) {
        EXPECT_DOUBLE_EQ(row(j), tag2(5, j));
      }
      // Writes through the slice hit the parent storage.
      row(row.own_lower(0)) = -7.0;
      EXPECT_DOUBLE_EQ(a(5, row.own_lower(0)), -7.0);
    }
  });
}

TEST(DistArray, FixStarDimKeepsWholeView) {
  Machine m(2, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> a(ctx, pv, {5, 8},
                         {DimDist::star(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto line = a.fix(0, 3);  // u(3, *): still distributed over both procs
    EXPECT_TRUE(line.participating());
    EXPECT_EQ(line.view().count(), 2);
    for (int j = line.own_lower(0); j <= line.own_upper(0); ++j) {
      EXPECT_DOUBLE_EQ(line(j), tag2(3, j));
    }
  });
}

TEST(DistArray, Fix3DPlaneMatchesPaperMg3Slicing) {
  // u(0:nx, 0:ny, 0:nz) dist (*, block, block) over procs(px, py);
  // u(*, *, k) must be a 2-D array dist (*, block) over procs(*, kp).
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray3<double> u(
        ctx, pv, {4, 8, 8},
        {DimDist::star(), DimDist::block_dist(), DimDist::block_dist()});
    u.fill([](std::array<int, 3> g) { return tag3(g[0], g[1], g[2]); });
    const int k = 6;  // owner column: 6/4 = 1
    auto plane = u.fix(2, k);
    EXPECT_EQ(plane.view().ndims(), 1);
    EXPECT_EQ(plane.view().extent(0), 2);
    const bool in_col = pv.coord_of(ctx.rank()).value()[1] == 1;
    EXPECT_EQ(plane.participating(), in_col);
    if (in_col) {
      EXPECT_EQ(plane.dist_kind(0), DistKind::kStar);
      EXPECT_EQ(plane.dist_kind(1), DistKind::kBlock);
      for (int i = 0; i < 4; ++i) {
        for (int j = plane.own_lower(1); j <= plane.own_upper(1); ++j) {
          EXPECT_DOUBLE_EQ(plane(i, j), tag3(i, j, k));
        }
      }
      // Further fixing a line: u(*, j, k) is owned by a single processor.
      auto line = plane.fix(1, 1);
      EXPECT_EQ(line.view().count(), 1);
      if (line.participating()) {
        EXPECT_DOUBLE_EQ(line(2), tag3(2, 1, k));
      }
    }
  });
}

TEST(DistArray, LocalizeBlockRangeBecomesStar) {
  // Listing 8: v(lo:hi, *) where lo:hi is one processor row's block.
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid2(2, 2);
    DistArray2<double> v(ctx, pv, {8, 6},
                         {DimDist::block_dist(), DimDist::block_dist()});
    v.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto mine = v.localize(0, 4, 4);  // rows 4..7 = proc row 1's block
    const bool in_row = pv.coord_of(ctx.rank()).value()[0] == 1;
    EXPECT_EQ(mine.participating(), in_row);
    EXPECT_EQ(mine.extent(0), 4);
    EXPECT_EQ(mine.dist_kind(0), DistKind::kStar);
    if (in_row) {
      EXPECT_EQ(mine.view().count(), 2);
      // Global index 0 of the localized dim = old global 4.
      for (int j = mine.own_lower(1); j <= mine.own_upper(1); ++j) {
        EXPECT_DOUBLE_EQ(mine(0, j), tag2(4, j));
        EXPECT_DOUBLE_EQ(mine(3, j), tag2(7, j));
      }
    }
  });
}

TEST(DistArray, LocalizeAcrossOwnersThrows) {
  Machine m(2, quiet_config());
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()});
    (void)a.localize(0, 2, 4);  // spans both owners
  }),
               Error);
}

TEST(DistArray, StridedLocalSpanOfRowSlice) {
  Machine m(2, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray2<double> a(ctx, pv, {4, 8},
                         {DimDist::star(), DimDist::block_dist()});
    a.fill([](std::array<int, 2> g) { return tag2(g[0], g[1]); });
    auto row = a.fix(0, 2);  // 1-D, block over 2 procs, strided in parent
    auto s = row.local_strided();
    ASSERT_EQ(s.n, 4);
    for (int l = 0; l < s.n; ++l) {
      EXPECT_DOUBLE_EQ(s[l], tag2(2, row.own_lower(0) + l));
    }
    s[0] = -9.0;
    EXPECT_DOUBLE_EQ(a(2, row.own_lower(0)), -9.0);
  });
}

TEST(DistArray, HaloRequiresBlockDim) {
  Machine m(2, quiet_config());
  EXPECT_THROW(m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::cyclic()}, {1});
  }),
               Error);
}

TEST(DistArray, BoundaryFrameReadsZeroAndIsWritable) {
  // Listing 2 semantics: the ghost frame extends past the global domain at
  // physical boundaries, carrying Dirichlet data (zero by default).
  Machine m(2, quiet_config());
  m.run([](Context& ctx) {
    ProcView pv = ProcView::grid1(2);
    DistArray1<double> a(ctx, pv, {8}, {DimDist::block_dist()}, {1});
    a.fill([](std::array<int, 1> g) { return 1.0 * g[0]; });
    a.exchange_halo();
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(a.at_halo({-1}), 0.0);  // frame cell, untouched
      a.frame({-1}) = 7.5;                     // impose a boundary value
      EXPECT_DOUBLE_EQ(a.at_halo({-1}), 7.5);
    } else {
      EXPECT_DOUBLE_EQ(a.at_halo({8}), 0.0);
    }
    // Beyond the frame is still an error.
    EXPECT_THROW((void)a.at_halo({ctx.rank() == 0 ? -2 : 9}), Error);
  });
}

// ---- accessor equivalence: slab-origin addressing vs the DimMap definition

/// What `f` throws, or "" when it returns normally.
template <class F>
std::string thrown(F f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Whether `what` is a KALI_CHECK failure carrying exactly message `msg`.
bool carries(const std::string& what, const std::string& msg) {
  return what.find(" — " + msg + " (") != std::string::npos;
}

/// at()'s contract from the DimMap definition: "" when g is owned, else the
/// message of the first dim that rejects it.
template <int R>
std::string owned_verdict(const DistArray<double, R>& a, const GIndex<R>& g) {
  for (int d = 0; d < R; ++d) {
    const int x = g[static_cast<std::size_t>(d)];
    if (x < 0 || x >= a.extent(d)) {
      return "index out of range";
    }
    if (a.map(d).owner(x) != a.my_coord(d)) {
      return "index not owned";
    }
  }
  return "";
}

/// at_halo()/frame()'s contract: a block dim admits [lower - halo,
/// upper + halo], frame cells past the domain included; any other dim
/// admits the owned indices.
template <int R>
std::string halo_verdict(const DistArray<double, R>& a, const GIndex<R>& g) {
  for (int d = 0; d < R; ++d) {
    const int x = g[static_cast<std::size_t>(d)];
    if (a.dist_kind(d) == DistKind::kBlock) {
      const int rel = x - a.map(d).block_lower(a.my_coord(d));
      if (rel < -a.halo(d) || rel >= a.local_count(d) + a.halo(d)) {
        return "at_halo: outside slab+halo";
      }
    } else if (x < 0 || x >= a.extent(d) || a.map(d).owner(x) != a.my_coord(d)) {
      return "at_halo: not owned";
    }
  }
  return "";
}

/// The cell the definition names for an admitted g of a freshly built
/// array: its slab is row-major over [-halo, count + halo) per dim, at
/// slab-relative DimMap::local(g) (block dims: g - lower, reaching into
/// the halo).  Anchored at the slab's first cell.
template <int R>
auto slab_cells(DistArray<double, R>& a) {
  GIndex<R> corner{};
  std::array<std::ptrdiff_t, static_cast<std::size_t>(R)> stride{};
  std::ptrdiff_t size = 1;
  for (int d = R - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    stride[ud] = size;
    size *= a.local_count(d) + 2 * a.halo(d);
    corner[ud] = a.dist_kind(d) == DistKind::kBlock
                     ? a.map(d).block_lower(a.my_coord(d)) - a.halo(d)
                     : (a.local_count(d) > 0 ? a.map(d).global(a.my_coord(d), 0) : 0);
  }
  const double* base = size > 0 ? &a.frame(corner) : nullptr;
  return [&a, stride, base](const GIndex<R>& g) {
    std::ptrdiff_t f = 0;
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const int rel = a.dist_kind(d) == DistKind::kBlock
                          ? g[ud] - a.map(d).block_lower(a.my_coord(d))
                          : a.map(d).local(g[ud]);
      f += (rel + a.halo(d)) * stride[ud];
    }
    return base + f;
  };
}

/// Sweep every g of the global box widened by the halo plus two on each
/// side: at(), at_halo() and frame() must admit exactly the indices their
/// verdicts admit, address the cell `cell_of` names, and reject the rest
/// with the verdict's message.  The admitted counts pin the sweep to the
/// slab's exact size.
template <int R, class CellOf>
void check_accessors(DistArray<double, R>& a, CellOf cell_of) {
  if (!a.participating()) {
    return;
  }
  const DistArray<double, R>& ca = a;
  GIndex<R> lo{};
  GIndex<R> hi{};
  std::int64_t owned_cells = 1;
  std::int64_t slab_cells_n = 1;
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    lo[ud] = -a.halo(d) - 2;
    hi[ud] = a.extent(d) + a.halo(d) + 2;
    owned_cells *= a.local_count(d);
    slab_cells_n *= a.local_count(d) + 2 * a.halo(d);
  }
  std::int64_t owned_seen = 0;
  std::int64_t slab_seen = 0;
  GIndex<R> g = lo;
  for (;;) {
    const std::string ov = owned_verdict(a, g);
    const std::string hv = halo_verdict(a, g);
    if (ov.empty()) {
      ++owned_seen;
      EXPECT_EQ(&a.at(g), cell_of(g));
      EXPECT_EQ(&ca.at(g), cell_of(g));
    } else {
      EXPECT_TRUE(carries(thrown([&] { (void)a.at(g); }), ov)) << ov;
    }
    if (hv.empty()) {
      ++slab_seen;
      EXPECT_EQ(&ca.at_halo(g), cell_of(g));
      EXPECT_EQ(&a.frame(g), cell_of(g));
    } else {
      EXPECT_TRUE(carries(thrown([&] { (void)ca.at_halo(g); }), hv)) << hv;
      EXPECT_TRUE(carries(thrown([&] { (void)a.frame(g); }), hv)) << hv;
    }
    int d = R - 1;
    for (; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      if (++g[ud] < hi[ud]) {
        break;
      }
      g[ud] = lo[ud];
    }
    if (d < 0) {
      break;
    }
  }
  EXPECT_EQ(owned_seen, owned_cells);
  EXPECT_EQ(slab_seen, slab_cells_n);
}

template <int R>
void check_fresh_layout(Context& ctx, const ProcView& pv, GIndex<R> ext,
                        std::array<DimDist, static_cast<std::size_t>(R)> dists,
                        GIndex<R> halo = {}) {
  DistArray<double, R> a(ctx, pv, ext, dists, halo);
  if (a.participating()) {
    check_accessors(a, slab_cells(a));
  }
}

TEST(DistArray, AccessorsMatchDimMapOnEveryLayout) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    const ProcView line = ProcView::grid1(4);
    const ProcView grid = ProcView::grid2(2, 2);
    // Uneven blocks (3, 3, 3, 1) and a block dim with extent < P, where
    // rank 3 owns nothing but still has a halo frame.
    check_fresh_layout<1>(ctx, line, {10}, {DimDist::block_dist()}, {1});
    check_fresh_layout<1>(ctx, line, {3}, {DimDist::block_dist()}, {1});
    check_fresh_layout<2>(ctx, grid, {7, 5},
                          {DimDist::block_dist(), DimDist::block_dist()}, {1, 2});
    check_fresh_layout<2>(ctx, line, {5, 9},
                          {DimDist::star(), DimDist::block_dist()}, {0, 2});
    check_fresh_layout<2>(ctx, grid, {10, 11},
                          {DimDist::cyclic(), DimDist::block_cyclic(2)});
    check_fresh_layout<2>(ctx, grid, {7, 9},
                          {DimDist::block_dist(), DimDist::cyclic()}, {1, 0});
  });
}

TEST(DistArray, AccessorsMatchDimMapOnViews) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    const ProcView grid = ProcView::grid2(2, 2);
    DistArray3<double> p3(ctx, grid, {7, 4, 6},
                          {DimDist::block_dist(), DimDist::star(),
                           DimDist::block_dist()},
                          {1, 0, 1});
    // fix of a star dim: same view, storage base moved to plane 2.
    auto plane = p3.fix(1, 2);
    check_accessors(plane, [&](const GIndex<2>& g) {
      return &p3.frame({g[0], 2, g[1]});
    });
    // fix of a block dim: only the owners of index 4 keep the storage.
    auto face = p3.fix(0, 4);
    check_accessors(face, [&](const GIndex<2>& g) {
      return &p3.frame({4, g[0], g[1]});
    });

    DistArray2<double> p2(ctx, grid, {8, 6},
                          {DimDist::block_dist(), DimDist::block_dist()}, {1, 1});
    // localize of a block dim inside owner 1's block [4, 8): a star dim.
    auto rows = p2.localize(0, 5, 2);
    check_accessors(rows, [&](const GIndex<2>& g) {
      return &p2.frame({5 + g[0], g[1]});
    });

    DistArray2<double> s2(ctx, ProcView::grid1(4), {7, 9},
                          {DimDist::star(), DimDist::block_dist()});
    // localize window of a star dim: every member, storage base moved.
    auto window = s2.localize(0, 2, 3);
    check_accessors(window, [&](const GIndex<2>& g) {
      return &s2.at({2 + g[0], g[1]});
    });
  });
}

// ---- for_each_cell: the box walker vs a per-element accessor walk

struct Walk {
  std::vector<const double*> cells;
  std::string error;  ///< what the walk stopped with ("" if it finished)

  bool operator==(const Walk&) const = default;
};

/// Walk the strided box cell by cell through at() (frame() with `ghosts`).
template <int R>
Walk walk_by_accessor(DistArray<double, R>& a, GIndex<R> first, GIndex<R> step,
                      GIndex<R> n, bool ghosts) {
  Walk w;
  w.error = thrown([&] {
    for (int d = 0; d < R; ++d) {
      if (n[static_cast<std::size_t>(d)] <= 0) {
        return;
      }
    }
    GIndex<R> t{};
    for (;;) {
      GIndex<R> g{};
      for (int d = 0; d < R; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        g[ud] = first[ud] + t[ud] * step[ud];
      }
      w.cells.push_back(ghosts ? &a.frame(g) : &a.at(g));
      int d = R - 1;
      for (; d >= 0; --d) {
        const auto ud = static_cast<std::size_t>(d);
        if (++t[ud] < n[ud]) {
          break;
        }
        t[ud] = 0;
      }
      if (d < 0) {
        return;
      }
    }
  });
  return w;
}

template <int R>
Walk walk_by_cells(DistArray<double, R>& a, GIndex<R> first, GIndex<R> step,
                   GIndex<R> n, bool ghosts) {
  Walk w;
  w.error = thrown([&] {
    a.for_each_cell(first, step, n, ghosts, [&](double& c) { w.cells.push_back(&c); });
  });
  return w;
}

template <int R>
Walk walk_by_const_cells(const DistArray<double, R>& a, GIndex<R> first,
                         GIndex<R> step, GIndex<R> n, bool ghosts) {
  Walk w;
  w.error = thrown([&] {
    a.for_each_cell(first, step, n, ghosts,
                    [&](const double& c) { w.cells.push_back(&c); });
  });
  return w;
}

/// One axis of a box sweep: every (first, step, n) combination listed.
struct Axis {
  std::vector<int> firsts;
  std::vector<int> steps;
  std::vector<int> ns;
};

Axis dense_axis(int extent) {
  Axis ax{{}, {1, 2}, {0, 1, 3}};
  for (int f = -2; f <= extent + 1; ++f) {
    ax.firsts.push_back(f);
  }
  return ax;
}

/// Every box the axes describe, both with and without ghosts: for_each_cell
/// must visit exactly the cells, in exactly the order, of the per-element
/// walk, and stop with the same message where that walk throws.  Both
/// outcomes must occur, so the sweep proves the fast path and the error
/// path alike.
template <int R>
void check_walker(DistArray<double, R>& a,
                  const std::array<Axis, static_cast<std::size_t>(R)>& axes) {
  if (!a.participating()) {
    return;
  }
  std::array<std::size_t, static_cast<std::size_t>(R)> size{};
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    size[ud] = axes[ud].firsts.size() * axes[ud].steps.size() * axes[ud].ns.size();
  }
  int inside = 0;
  int outside = 0;
  std::array<std::size_t, static_cast<std::size_t>(R)> pick{};
  for (;;) {
    GIndex<R> first{};
    GIndex<R> step{};
    GIndex<R> n{};
    for (int d = 0; d < R; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const Axis& ax = axes[ud];
      std::size_t p = pick[ud];
      n[ud] = ax.ns[p % ax.ns.size()];
      p /= ax.ns.size();
      step[ud] = ax.steps[p % ax.steps.size()];
      first[ud] = ax.firsts[p / ax.steps.size()];
    }
    for (const bool ghosts : {false, true}) {
      const Walk want = walk_by_accessor(a, first, step, n, ghosts);
      EXPECT_EQ(walk_by_cells(a, first, step, n, ghosts), want);
      EXPECT_EQ(walk_by_const_cells(a, first, step, n, ghosts), want);
      (want.error.empty() ? inside : outside) += 1;
    }
    int d = R - 1;
    for (; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      if (++pick[ud] < size[ud]) {
        break;
      }
      pick[ud] = 0;
    }
    if (d < 0) {
      break;
    }
  }
  EXPECT_GT(inside, 0);
  EXPECT_GT(outside, 0);
}

TEST(DistArray, CellWalkerMatchesAccessorWalk2D) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid2(2, 2), {9, 7},
                         {DimDist::block_dist(), DimDist::block_dist()}, {1, 1});
    check_walker<2>(a, {dense_axis(9), dense_axis(7)});
  });
}

TEST(DistArray, CellWalkerMatchesAccessorWalk3DAndFixedView) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    DistArray3<double> a(ctx, ProcView::grid2(2, 2), {6, 3, 5},
                         {DimDist::block_dist(), DimDist::star(),
                          DimDist::block_dist()},
                         {1, 0, 1});
    const Axis a0{{-1, 0, 2, 3, 5, 6}, {1, 2}, {2}};
    const Axis a1{{-1, 0, 1, 2}, {1, 2}, {2}};
    const Axis a2{{-1, 0, 2, 3, 4, 5}, {1, 2}, {2}};
    check_walker<3>(a, {a0, a1, a2});
    auto plane = a.fix(1, 1);  // nonzero storage base
    check_walker<2>(plane, {dense_axis(6), dense_axis(5)});
  });
}

TEST(DistArray, CellWalkerMatchesAccessorWalkCyclic) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid2(2, 2), {7, 6},
                         {DimDist::cyclic(), DimDist::block_dist()}, {0, 1});
    check_walker<2>(a, {dense_axis(7), dense_axis(6)});
  });
}

TEST(DistArray, CellWalkerMatchesAccessorWalkNegativeSteps) {
  // A negative step walks from the high corner down: the row walk must
  // visit the cells of the bounding box in the accessor walk's order.
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid2(2, 2), {9, 7},
                         {DimDist::block_dist(), DimDist::block_dist()}, {1, 1});
    Axis a0 = dense_axis(9);
    a0.steps = {-1, -2, 1};
    Axis a1 = dense_axis(7);
    a1.steps = {-1, 2};
    check_walker<2>(a, {a0, a1});
  });
}

// --- checked box windows ------------------------------------------------

/// Every cell of this member's owned box, widened by the halo when
/// `ghosts`: a window on that box must resolve each cell to the very
/// element at_halo()/at() does, and writes through it must land there.
template <class T, int R>
void check_window(DistArray<T, R>& a, bool ghosts) {
  if (!a.participating()) {
    return;
  }
  Box<R> b;
  for (int d = 0; d < R; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    const int h = ghosts ? a.halo(d) : 0;
    b.lo[ud] = a.own_lower(d) - h;
    b.hi[ud] = a.own_upper(d) + h;
  }
  const auto w = a.window(b, ghosts);
  const auto cw = std::as_const(a).window(b, ghosts);
  int cells = 0;
  GIndex<R> g = b.lo;
  for (;;) {
    const auto via = [&](const auto& win) -> decltype(auto) {
      return std::apply([&](auto... x) -> decltype(auto) { return win(x...); }, g);
    };
    const T* want = ghosts ? &a.at_halo(g) : &a.at(g);
    EXPECT_EQ(&via(w), want);
    EXPECT_EQ(&via(cw), want);
    via(w) = static_cast<T>(cells);
    EXPECT_EQ(*want, static_cast<T>(cells));
    ++cells;
    int d = R - 1;
    for (; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      if (++g[ud] <= b.hi[ud]) {
        break;
      }
      g[ud] = b.lo[ud];
    }
    if (d < 0) {
      break;
    }
  }
  EXPECT_GT(cells, 0);
}

TEST(DistArray, WindowMatchesAccessorsOnArraySliceAndLocalizedView) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    DistArray3<double> a(ctx, ProcView::grid2(2, 2), {6, 3, 5},
                         {DimDist::block_dist(), DimDist::star(),
                          DimDist::block_dist()},
                         {1, 0, 1});
    for (const bool ghosts : {false, true}) {
      check_window(a, ghosts);
      auto star_plane = a.fix(1, 2);  // keeps the whole view
      check_window(star_plane, ghosts);
      auto block_plane = a.fix(2, 3);  // sliced to the owners of k = 3
      check_window(block_plane, ghosts);
    }
    DistArray2<int> b(ctx, ProcView::grid2(2, 2), {8, 6},
                      {DimDist::block_dist(), DimDist::block_dist()}, {1, 1});
    if (b.participating()) {
      // One owner's rows [lo + 1, upper] become a star dim.
      auto rows = b.localize(0, b.own_lower(0) + 1, b.local_count(0) - 1);
      check_window(rows, false);
      check_window(rows, true);
    }
  });
}

TEST(DistArray, WindowRejectsABoxOutsideTheSlab) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid2(2, 2), {8, 6},
                         {DimDist::block_dist(), DimDist::block_dist()}, {1, 1});
    const int lo0 = a.own_lower(0), hi0 = a.own_upper(0);
    const int lo1 = a.own_lower(1), hi1 = a.own_upper(1);
    // One ghost layer is inside slab+halo; two are not.
    EXPECT_EQ(thrown([&] { (void)a.window({{lo0 - 1, lo1 - 1}, {hi0 + 1, hi1 + 1}}, true); }),
              "");
    EXPECT_TRUE(carries(
        thrown([&] { (void)a.window({{lo0, lo1}, {hi0 + 2, hi1}}, true); }),
        "window: box outside slab+halo"));
    EXPECT_TRUE(carries(
        thrown([&] { (void)a.window({{lo0, lo1 - 2}, {hi0, hi1}}, true); }),
        "window: box outside slab+halo"));
    // Without ghosts, a single ghost cell at either corner is refused.
    EXPECT_TRUE(carries(
        thrown([&] { (void)a.window({{lo0 - 1, lo1}, {hi0, hi1}}, false); }),
        "window: box not owned"));
    EXPECT_TRUE(carries(
        thrown([&] { (void)a.window({{lo0, lo1}, {hi0, hi1 + 1}}, false); }),
        "window: box not owned"));
  });
}

TEST(DistArray, WindowRejectsCyclicDims) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid2(2, 2), {8, 6},
                         {DimDist::cyclic(), DimDist::block_dist()});
    const int lo1 = a.own_lower(1), hi1 = a.own_upper(1);
    const int owned0 = a.owned(0).front();
    EXPECT_TRUE(carries(
        thrown([&] { (void)a.window({{owned0, lo1}, {owned0, hi1}}, false); }),
        "window: cyclic or block-cyclic dim; index it with at()"));
    DistArray2<double> bc(ctx, ProcView::grid2(2, 2), {8, 6},
                          {DimDist::block_dist(), DimDist::block_cyclic(2)});
    const int lo0 = bc.own_lower(0);
    const int owned1 = bc.owned(1).front();
    EXPECT_TRUE(carries(
        thrown([&] { (void)bc.window({{lo0, owned1}, {lo0, owned1}}, false); }),
        "window: cyclic or block-cyclic dim; index it with at()"));
  });
}

TEST(DistArray, WindowAcceptsAnEmptyBox) {
  Machine m(4, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid2(2, 2), {8, 6},
                         {DimDist::cyclic(), DimDist::block_dist()});
    // Empty along one dim: no membership, layout or slab test applies.
    EXPECT_TRUE(a.window({{0, 5}, {7, 4}}, false).box().empty());
    EXPECT_TRUE(a.window({{100, 0}, {-100, 5}}, true).box().empty());
    // A non-member may open an empty window too; a non-empty one needs
    // membership.
    DistArray1<double> half(ctx, ProcView::grid1(2), {4}, {DimDist::block_dist()});
    if (!half.participating()) {
      EXPECT_TRUE(half.window({{1}, {0}}, false).box().empty());
      EXPECT_TRUE(carries(thrown([&] { (void)half.window({{0}, {0}}, false); }),
                          "operation requires view membership"));
    }
  });
}

}  // namespace
}  // namespace kali
