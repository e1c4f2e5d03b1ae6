// Death/regression tests for the KALI_CHECK_INVARIANTS build mode: each
// machine-layer invariant must actually fire on the violation it guards
// against, and must stay silent on legal programs.  Built without
// -DKALI_CHECK_INVARIANTS=ON the checks compile to no-ops, so every death
// test skips itself (the regression tests still run).
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "machine/message.hpp"
#include "machine/processor.hpp"
#include "runtime/dist_array.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

#if defined(KALI_CHECK_INVARIANTS)
constexpr bool kInvariantsOn = true;
#else
constexpr bool kInvariantsOn = false;
#endif

#define SKIP_WITHOUT_INVARIANTS()                                   \
  do {                                                              \
    if (!kInvariantsOn) {                                           \
      GTEST_SKIP() << "built without -DKALI_CHECK_INVARIANTS=ON";   \
    }                                                               \
  } while (0)

MachineConfig quiet_config() {
  MachineConfig cfg;
  cfg.recv_timeout_wall = 10.0;
  return cfg;
}

Group whole_machine(Context& ctx) {
  std::vector<int> ranks(static_cast<std::size_t>(ctx.nprocs()));
  for (int r = 0; r < ctx.nprocs(); ++r) {
    ranks[static_cast<std::size_t>(r)] = r;
  }
  return Group(ranks, ctx.rank());
}

// --- clock monotonicity ----------------------------------------------------

TEST(Invariants, ProcessorClockMayNotMoveBackwards) {
  SKIP_WITHOUT_INVARIANTS();
  Processor p(0);
  p.set_clock(5.0);
  p.set_clock(5.0);  // equal is legal (zero-cost events)
  EXPECT_THROW(p.set_clock(4.0), Error);
}

TEST(Invariants, PortClocksMayNotMoveBackwards) {
  SKIP_WITHOUT_INVARIANTS();
  Processor p(0);
  p.set_out_link_free(3.0);
  EXPECT_THROW(p.set_out_link_free(2.0), Error);
  p.set_in_link_free(3.0);
  EXPECT_THROW(p.set_in_link_free(2.0), Error);
}

TEST(Invariants, PortClocksResetLegallyAtBarriers) {
  // clear_link_state (the sync_clocks barrier) is the sanctioned reset:
  // it bypasses the monotonicity guard by design.
  Processor p(0);
  p.set_out_link_free(3.0);
  p.set_in_link_free(3.0);
  p.clear_link_state();
  EXPECT_EQ(p.out_link_free(), 0.0);
  EXPECT_EQ(p.in_link_free(), 0.0);
  p.set_out_link_free(1.0);  // and the guard re-arms from zero
}

// --- edge ledger key discipline --------------------------------------------

TEST(Invariants, EdgeLedgerRejectsDuplicateKeys) {
  SKIP_WITHOUT_INVARIANTS();
  Processor p(0);
  p.reserve_edge(/*edge=*/7, /*send_time=*/1.0, /*src=*/2, /*seq=*/5,
                 /*t_in=*/1.0, /*wire=*/0.5);
  // Distinct keys on the same edge are fine, in any component.
  p.reserve_edge(7, 1.0, 2, 6, 1.5, 0.5);
  p.reserve_edge(7, 1.0, 3, 5, 1.5, 0.5);
  p.reserve_edge(7, 2.0, 2, 5, 2.0, 0.5);
  // Re-reserving an identical (send_time, src, seq) key is a resolved-twice
  // message: the serialization total order would no longer be total.
  EXPECT_THROW(p.reserve_edge(7, 1.0, 2, 5, 3.0, 0.5), Error);
  // The same key on a *different* edge is a different resource: legal.
  p.reserve_edge(8, 1.0, 2, 5, 1.0, 0.5);
}

// --- tag-band registration at send -----------------------------------------

TEST(Invariants, SendRejectsUnregisteredRuntimeBandTag) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2, quiet_config());
  EXPECT_THROW(m.run([&](Context& ctx) {
                 if (ctx.rank() == 0) {
                   // Inside the runtime band but in no registered slot.
                   ctx.send(1, kRuntimeTagBase + 999, 42);
                 }
               }),
               Error);
}

TEST(Invariants, SendRejectsUnregisteredCollectiveBandTag) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2, quiet_config());
  EXPECT_THROW(m.run([&](Context& ctx) {
                 if (ctx.rank() == 0) {
                   // The collectives band registers base+1..base+7 only.
                   ctx.send(1, kCollectiveTagBase + 100, 42);
                 }
               }),
               Error);
}

TEST(Invariants, SendAcceptsRegisteredTagsInEveryBand) {
  // Regression guard in both build modes: legal traffic never trips the
  // tag check.  One tag per band: user, runtime, kernel.
  Machine m(2, quiet_config());
  m.run([&](Context& ctx) {
    for (int tag : {42, kTagHaloBase + 2, kTagRedistData, kTagTriBase + 4}) {
      if (ctx.rank() == 0) {
        ctx.send(1, tag, tag);
      } else {
        EXPECT_EQ(ctx.recv<int>(0, tag), tag);
      }
    }
  });
}

// --- sync_clocks straddle detection ----------------------------------------

TEST(Invariants, RecvRejectsMessageStraddlingSyncClocks) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2, quiet_config());
  try {
    m.run([&](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, 1.0);  // stamped with epoch 0
      } else {
        // Cross the barrier on the receiver alone (the epoch bump
        // sync_clocks performs after its own leak check has passed — a
        // full sync_clocks would trip that leak check first): the pending
        // message now straddles it.
        ctx.proc().bump_barrier_epoch();
        (void)ctx.recv<double>(0, 5);
      }
    });
    FAIL() << "straddling recv did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("straddles"), std::string::npos)
        << e.what();
  }
}

// --- message-leak accounting -----------------------------------------------

TEST(Invariants, SyncClocksRejectsLeakedMessage) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2, quiet_config());
  try {
    m.run([&](Context& ctx) {
      Group g = whole_machine(ctx);
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, 1.0);  // nobody ever receives this
      }
      // The machine-spanning barrier proves the phase's traffic has fully
      // arrived; rank 1's still-queued message is a leak.
      sync_clocks(ctx, g);
    });
    FAIL() << "leaked message did not throw at sync_clocks";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("leak at sync_clocks"), std::string::npos) << what;
    EXPECT_NE(what.find("tag 5"), std::string::npos) << what;
    EXPECT_NE(what.find("0 -> 1"), std::string::npos) << what;
  }
}

TEST(Invariants, SubgroupSyncClocksSkipsLeakCheck) {
  SKIP_WITHOUT_INVARIANTS();
  // Rank 2 (outside the subgroup) has already delivered tag 5 to rank 0
  // when ranks {0, 1} align clocks — the tag-6 handshake orders that, since
  // pushes from one sender are FIFO.  A subgroup barrier proves nothing
  // about rank 2's traffic, so the leak check must stay quiet; the late
  // recv then trips the (orthogonal) straddle invariant, which is the
  // error this test expects to see *instead* of a leak report.
  Machine m(3, quiet_config());
  try {
    m.run([&](Context& ctx) {
      if (ctx.rank() == 2) {
        ctx.send(0, /*tag=*/5, 1.0);
        ctx.send(0, /*tag=*/6, 2.0);
      }
      if (ctx.rank() == 0) {
        (void)ctx.recv<double>(2, 6);
      }
      if (ctx.rank() != 2) {
        Group g({0, 1}, ctx.rank());
        sync_clocks(ctx, g);
      }
      if (ctx.rank() == 0) {
        (void)ctx.recv<double>(2, 5);
      }
    });
    FAIL() << "expected the straddle invariant to fire";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("leak"), std::string::npos) << what;
    EXPECT_NE(what.find("straddles"), std::string::npos) << what;
  }
}

TEST(Invariants, TeardownRejectsLeakedMessage) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2, quiet_config());
  try {
    m.run([&](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, 1.0);  // sent, never received, no barrier
      }
    });
    FAIL() << "leaked message did not throw at teardown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("leak at machine teardown"), std::string::npos)
        << what;
    EXPECT_NE(what.find("tag 5"), std::string::npos) << what;
  }
}

TEST(Invariants, BalancedTrafficPassesBothLeakChecks) {
  // Regression guard in both build modes: matched send/recv traffic stays
  // silent through sync_clocks and teardown, and the per-tag ledgers
  // balance exactly.
  Machine m(2, quiet_config());
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 3.0);
    } else {
      EXPECT_EQ(ctx.recv<double>(0, 5), 3.0);
    }
    sync_clocks(ctx, g);
  });
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

TEST(Invariants, DroppedIrecvHandleDiagnosedAtReturn) {
  // An irecv whose handle is dropped without wait() is a leak even when the
  // matching message eventually arrives: the destination span may dangle
  // and the completion algebra never ran.  The invariant names the pending
  // operation when the rank program returns.
  SKIP_WITHOUT_INVARIANTS();
  Machine m(2, quiet_config());
  try {
    m.run([&](Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, 3.0);
      } else {
        double got = 0.0;
        CommHandle h = ctx.irecv<double>(0, 5, got);
        (void)h;  // dropped: never waited
      }
    });
    ADD_FAILURE() << "leaked handle not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nonblocking operation never completed"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("tag=5"), std::string::npos) << what;
  }
}

TEST(Invariants, WaitedHandlePassesTheLeakCheck) {
  // Regression guard in both build modes: a properly waited irecv leaves no
  // pending-operation residue for the teardown check to trip on.
  Machine m(2, quiet_config());
  m.run([&](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 3.0);
    } else {
      double got = 0.0;
      CommHandle h = ctx.irecv<double>(0, 5, got);
      ctx.wait(h);
      EXPECT_EQ(got, 3.0);
    }
  });
  EXPECT_TRUE(m.stats().unmatched_by_tag().empty());
}

TEST(Invariants, BarrierSeparatedPhasesPassTheStraddleCheck) {
  // Regression guard: a well-phased program (all traffic quiesced before
  // each sync_clocks, fresh traffic after) is legal in both build modes.
  Machine m(2, quiet_config());
  m.run([&](Context& ctx) {
    Group g = whole_machine(ctx);
    for (int phase = 0; phase < 3; ++phase) {
      if (ctx.rank() == 0) {
        ctx.send(1, /*tag=*/5, static_cast<double>(phase));
      } else {
        EXPECT_EQ(ctx.recv<double>(0, 5), static_cast<double>(phase));
      }
      sync_clocks(ctx, g);
    }
    const double sum = allreduce_sum(ctx, g, 1.0);
    EXPECT_EQ(sum, 2.0);
  });
}

// --- checked box windows ----------------------------------------------------

TEST(Invariants, WindowAccessOutsideItsBoxIsCaught) {
  SKIP_WITHOUT_INVARIANTS();
  Machine m(1, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid1(1), {6, 5},
                         {DimDist::star(), DimDist::block_dist()});
    const auto w = a.window({{1, 1}, {3, 3}}, false);
    EXPECT_NO_THROW((void)w(2, 3));
    // Owned and in the slab, but outside the box the window validated.
    EXPECT_THROW((void)w(4, 3), Error);
    EXPECT_THROW((void)w(2, 0), Error);
  });
}

// A regression test: the batch's corner check runs in every build.
TEST(Invariants, BatchLineOverrunningItsBoxIsCaught) {
  Machine m(1, quiet_config());
  m.run([](Context& ctx) {
    DistArray2<double> a(ctx, ProcView::grid1(1), {6, 5},
                         {DimDist::star(), DimDist::block_dist()});
    const auto w = a.window({{1, 1}, {4, 3}}, false);
    // Lines along dim 0 at j = 1 and 3: each runs rows 1..4, inside the box.
    EXPECT_NO_THROW((void)w.lines({1, 1}, 0, 4, 1, 2, 2));
    // One cell too long: every line's last cell is row 5, in the slab but
    // outside the box.
    EXPECT_THROW((void)w.lines({1, 1}, 0, 5, 1, 2, 2), Error);
    // The third line (j = 5) starts outside the box.
    EXPECT_THROW((void)w.lines({1, 1}, 0, 4, 1, 2, 3), Error);
    // Stepping down from j = 3: j = 1 is inside, j = -1 is not.
    EXPECT_NO_THROW((void)w.lines({1, 3}, 0, 4, 1, -2, 2));
    EXPECT_THROW((void)w.lines({1, 3}, 0, 4, 1, -2, 3), Error);
    // Lines stepped along their own dim are not a batch.
    EXPECT_THROW((void)w.lines({1, 1}, 0, 2, 0, 2, 2), Error);
  });
}

}  // namespace
}  // namespace kali
