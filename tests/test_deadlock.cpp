// Wait-for-graph deadlock detection (machine/deadlock.hpp): a blocked recv
// publishes its wait edge, and the instant no rank (nor queued message) can
// satisfy a waiter the run aborts with a full per-rank diagnostic — instead
// of hanging until the wall-clock recv timeout, which stays as a fallback
// for the open-ended stalls the graph check cannot prove dead.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "machine/context.hpp"
#include "machine/deadlock.hpp"
#include "machine/machine.hpp"
#include "machine/message.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

MachineConfig quiet_config() {
  MachineConfig cfg;
  cfg.recv_timeout_wall = 10.0;  // far fallback; detection must beat it
  return cfg;
}

/// Number of non-overlapping occurrences of `needle` in `hay`.
int count_of(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (auto pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Deposit an empty message from `src` on `tag` (a queued match).
void push_from(Mailbox& mb, int src, int tag) {
  Message msg;
  msg.src = src;
  msg.tag = tag;
  mb.push(std::move(msg));
}

/// A detector over `n` standalone mailboxes, driven event by event so a
/// test controls exactly which registration or retirement trips it.
struct DetectorRig {
  explicit DetectorRig(int n)
      : boxes(static_cast<std::size_t>(n)), detector(pointers(boxes)) {}

  static std::vector<Mailbox*> pointers(std::vector<Mailbox>& boxes) {
    std::vector<Mailbox*> out;
    for (auto& b : boxes) {
      out.push_back(&b);
    }
    return out;
  }

  /// The detector's diagnostic from `event`, or "" if it did not throw.
  static std::string error_of(const std::function<void()>& event) {
    try {
      event();
    } catch (const Error& e) {
      return e.what();
    }
    return {};
  }

  std::vector<Mailbox> boxes;
  DeadlockDetector detector;
};

std::string run_expecting_error(Machine& m,
                                const std::function<void(Context&)>& prog) {
  try {
    m.run(prog);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "program completed without the expected Error";
  return {};
}

TEST(Deadlock, TwoRankCycleDetectedInstantly) {
  Machine m(2, quiet_config());
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    // 0 waits on 1 and 1 waits on 0; neither ever sends.
    (void)ctx.recv<int>(1 - ctx.rank(), /*tag=*/5);
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("STUCK"), std::string::npos) << what;
}

TEST(Deadlock, FourRankCycleNamesEveryBlockedRank) {
  Machine m(4, quiet_config());
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    (void)ctx.recv<int>((ctx.rank() + 1) % 4, /*tag=*/5);
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  // The dump names every blocked rank with its expected (src, tag).
  for (int r = 0; r < 4; ++r) {
    const std::string line = "rank " + std::to_string(r) +
                             ": STUCK in recv(src=" +
                             std::to_string((r + 1) % 4) + ", tag=5";
    EXPECT_NE(what.find(line), std::string::npos) << what;
  }
}

TEST(Deadlock, TagMismatchCaughtWhenSenderRetires) {
  Machine m(2, quiet_config());
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 42);  // wrong tag, then rank 0 finishes
    } else {
      (void)ctx.recv<int>(0, /*tag=*/6);  // waits forever on tag 6
    }
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("recv(src=0, tag=6"), std::string::npos) << what;
  // The dump shows the mismatched message still queued in the mailbox.
  EXPECT_NE(what.find("tag 5"), std::string::npos) << what;
}

TEST(Deadlock, PartialGroupStallDetectedWhileOthersWork) {
  Machine m(4, quiet_config());
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    if (ctx.rank() < 2) {
      // Ranks 0 and 1 are healthy: a clean exchange, then done.
      ctx.send(1 - ctx.rank(), /*tag=*/7, ctx.rank());
      (void)ctx.recv<int>(1 - ctx.rank(), /*tag=*/7);
    } else {
      // Ranks 2 and 3 deadlock on each other.
      (void)ctx.recv<int>(ctx.rank() == 2 ? 3 : 2, /*tag=*/5);
    }
  });
  EXPECT_NE(what.find("rank 2: STUCK in recv(src=3, tag=5"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("rank 3: STUCK in recv(src=2, tag=5"),
            std::string::npos)
      << what;
}

TEST(Deadlock, AnySourceStallDetectedWhenNoSenderRemains) {
  Machine m(4, quiet_config());
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    // Everyone waits on "anyone" — nobody will ever send.
    (void)ctx.recv<int>(kAnySource, /*tag=*/5);
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("recv(src=any, tag=5"), std::string::npos) << what;
}

TEST(Deadlock, QueuedMatchKeepsWaiterAliveWhenSenderRetires) {
  // A sender that has already pushed the match may finish while the
  // receiver is still blocked: the waiter is live (its pop succeeds), and
  // mark_done must not flag it.
  Machine m(2, quiet_config());
  m.run([](Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, /*tag=*/5, 99);
    } else {
      EXPECT_EQ(ctx.recv<int>(0, /*tag=*/5), 99);
    }
  });
}

TEST(Deadlock, WaitOnNeverSentIrecvDiagnosedByGraph) {
  // A nonblocking receive whose message is never sent deadlocks at the
  // wait(), not at the post: CommHandle::wait publishes the same wait-for
  // edge a blocking recv does, so the graph check diagnoses it instantly
  // (recv_timeout_wall stays a far fallback that must not be what fires).
  Machine m(2, quiet_config());
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    if (ctx.rank() == 0) {
      int got = 0;
      CommHandle h = ctx.irecv<int>(1, /*tag=*/5, got);
      ctx.wait(h);  // rank 1 returns without sending: provably dead
    }
    // rank 1 returns immediately.
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("STUCK in recv(src=1, tag=5"), std::string::npos)
      << what;
  EXPECT_EQ(what.find("timed out"), std::string::npos) << what;
}

TEST(Deadlock, WaitAllCycleDiagnosedByGraph) {
  // Both ranks post irecvs for each other and wait before either sends —
  // the async version of the classic two-rank cycle.
  Machine m(2, quiet_config());
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    int got = 0;
    CommHandle h = ctx.irecv<int>(1 - ctx.rank(), /*tag=*/6, got);
    ctx.wait(h);
    ctx.send<int>(1 - ctx.rank(), /*tag=*/6, 1);  // too late, never reached
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("STUCK"), std::string::npos) << what;
}

TEST(Deadlock, DisabledDetectionFallsBackToWallClockTimeout) {
  MachineConfig cfg;
  cfg.deadlock_detection = false;
  cfg.recv_timeout_wall = 0.2;  // keep the test fast
  Machine m(2, cfg);
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    (void)ctx.recv<int>(1 - ctx.rank(), /*tag=*/5);
  });
  EXPECT_NE(what.find("timed out"), std::string::npos) << what;
  EXPECT_NE(what.find("detection is disabled"), std::string::npos) << what;
}

// --- the chain walk and the per-source waiter lists, event by event -----

TEST(Deadlock, ChainOf64CaughtWhenTheTailRetires) {
  // Rank r waits on r + 1; rank 63 returns without sending.  Every
  // registration reaches the running tail (no throw), and retiring it
  // strands the whole chain: all 63 waiters are STUCK in the dump.
  constexpr int kP = 64;
  DetectorRig rig(kP);
  for (int r = kP - 2; r >= 0; --r) {
    EXPECT_NO_THROW(rig.detector.enter_wait(r, r + 1, /*tag=*/5)) << r;
  }
  const std::string what =
      DetectorRig::error_of([&] { rig.detector.mark_done(kP - 1); });
  EXPECT_NE(what.find("wait-for-graph check: 63 rank(s)"), std::string::npos)
      << what;
  EXPECT_EQ(count_of(what, "STUCK"), kP - 1) << what;
  for (int r = 0; r < kP - 1; ++r) {
    const std::string line = "rank " + std::to_string(r) +
                             ": STUCK in recv(src=" + std::to_string(r + 1) +
                             ", tag=5";
    EXPECT_NE(what.find(line), std::string::npos) << line;
  }
  EXPECT_NE(what.find("rank 63: done"), std::string::npos) << what;
}

TEST(Deadlock, ChainOf64CaughtMachineWide) {
  // The same chain on a machine: whichever event closes it (rank 63's
  // retirement or a late registration), rank 62 waits on a rank that will
  // never send and is named STUCK.
  Machine m(64, quiet_config());
  const std::string what = run_expecting_error(m, [](Context& ctx) {
    if (ctx.rank() < ctx.nprocs() - 1) {
      (void)ctx.recv<int>(ctx.rank() + 1, /*tag=*/5);
    }
  });
  EXPECT_NE(what.find("wait-for-graph"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 62: STUCK in recv(src=63, tag=5"),
            std::string::npos)
      << what;
}

TEST(Deadlock, QueuedMatchMidwayKeepsTheChainLive) {
  // A 64-rank ring of waiters, closed by the last registration, where rank
  // 32's match is already queued: rank 32 will pop it and run, so every
  // chain through it is live and nothing may be flagged — nor when rank 32
  // then feeds rank 31 and retires.
  constexpr int kP = 64;
  DetectorRig rig(kP);
  push_from(rig.boxes[32], /*src=*/33, /*tag=*/5);
  for (int r = 0; r < kP; ++r) {
    EXPECT_NO_THROW(rig.detector.enter_wait(r, (r + 1) % kP, /*tag=*/5))
        << r;
  }
  // Rank 32 wakes, pops, and sends on to 31; rank 31 wakes likewise.
  rig.detector.leave_wait(32);
  push_from(rig.boxes[31], /*src=*/32, /*tag=*/5);
  EXPECT_NO_THROW(rig.detector.mark_done(32));
}

TEST(Deadlock, RingOf64ClosedByTheLastRegistration) {
  // 63 registrations chain down to the one running rank; the 64th makes
  // the chain a ring with no queued match — caught at that enter_wait.
  constexpr int kP = 64;
  DetectorRig rig(kP);
  for (int r = 0; r < kP - 1; ++r) {
    EXPECT_NO_THROW(rig.detector.enter_wait(r, r + 1, /*tag=*/9)) << r;
  }
  const std::string what = DetectorRig::error_of(
      [&] { rig.detector.enter_wait(kP - 1, 0, /*tag=*/9); });
  EXPECT_NE(what.find("wait-for-graph check: 64 rank(s)"), std::string::npos)
      << what;
  EXPECT_EQ(count_of(what, "STUCK"), kP) << what;
  EXPECT_NE(what.find("rank 63: STUCK in recv(src=0, tag=9"),
            std::string::npos)
      << what;
}

TEST(Deadlock, OutOfRangeSourceCaughtAtOnce) {
  for (const int src : {4, 100, -7}) {
    SCOPED_TRACE(src);
    DetectorRig rig(4);
    const std::string what = DetectorRig::error_of(
        [&] { rig.detector.enter_wait(1, src, /*tag=*/5); });
    EXPECT_NE(what.find("rank 1: STUCK in recv(src=" + std::to_string(src)),
              std::string::npos)
        << what;
    EXPECT_EQ(count_of(what, "STUCK"), 1) << what;
  }
  // A queued match still keeps such a waiter live (it can pop it).
  DetectorRig rig(4);
  push_from(rig.boxes[1], /*src=*/4, /*tag=*/5);
  EXPECT_NO_THROW(rig.detector.enter_wait(1, 4, /*tag=*/5));
}

TEST(Deadlock, MixedAnySourceAndSpecificWaiters) {
  DetectorRig rig(4);
  // A wildcard waiter is live while any other rank can still send.
  EXPECT_NO_THROW(rig.detector.enter_wait(0, kAnySource, /*tag=*/5));
  EXPECT_NO_THROW(rig.detector.enter_wait(1, 0, /*tag=*/5));
  EXPECT_NO_THROW(rig.detector.enter_wait(2, 1, /*tag=*/5));
  // Rank 3 retires: nothing running is left, so the wildcard and both
  // chains behind it are dead at once.
  const std::string what =
      DetectorRig::error_of([&] { rig.detector.mark_done(3); });
  EXPECT_EQ(count_of(what, "STUCK"), 3) << what;
  EXPECT_NE(what.find("rank 0: STUCK in recv(src=any, tag=5"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("rank 2: STUCK in recv(src=1, tag=5"),
            std::string::npos)
      << what;

  // Once the wildcard leaves, specific waits go back to the chain walk:
  // 2 -> 1 -> 2 is a cycle, while rank 0 runs.
  DetectorRig rig2(4);
  EXPECT_NO_THROW(rig2.detector.enter_wait(0, kAnySource, /*tag=*/5));
  EXPECT_NO_THROW(rig2.detector.enter_wait(1, 2, /*tag=*/5));
  rig2.detector.leave_wait(0);
  const std::string cyc = DetectorRig::error_of(
      [&] { rig2.detector.enter_wait(2, 1, /*tag=*/5); });
  EXPECT_EQ(count_of(cyc, "STUCK"), 2) << cyc;
  EXPECT_NE(cyc.find("rank 0: running"), std::string::npos) << cyc;

  // A wildcard whose match is queued stays live with nobody else running.
  DetectorRig rig3(2);
  push_from(rig3.boxes[0], /*src=*/1, /*tag=*/5);
  EXPECT_NO_THROW(rig3.detector.enter_wait(0, kAnySource, /*tag=*/5));
  EXPECT_NO_THROW(rig3.detector.mark_done(1));
}

TEST(Deadlock, AwaitMatchesProbesForOneQueuedMatch) {
  // A wait for n > 1 matches publishes the same (src, tag) edge as a
  // blocking recv, and the detector probes it the same way: one queued
  // match makes the waiter live.  So a sender that retires one message
  // short is not provable by the graph and falls to the wall-clock
  // timeout; a sender that sends nothing is caught by the graph.
  MachineConfig cfg = quiet_config();
  cfg.recv_timeout_wall = 0.3;
  Machine short_one(2, cfg);
  const std::string timed_out = run_expecting_error(short_one, [](Context& ctx) {
    if (ctx.rank() == 0) {
      int a = 0;
      int b = 0;
      CommHandle ha = ctx.irecv<int>(1, /*tag=*/5, a);
      CommHandle hb = ctx.irecv<int>(1, /*tag=*/5, b);
      ctx.wait(hb);  // completes the lane: waits for two matches
      ctx.wait(ha);
    } else {
      ctx.send<int>(0, /*tag=*/5, 1);
    }
  });
  EXPECT_NE(timed_out.find("timed out"), std::string::npos) << timed_out;
  EXPECT_NE(timed_out.find("did not trip"), std::string::npos) << timed_out;

  Machine none(2, quiet_config());
  const std::string stuck = run_expecting_error(none, [](Context& ctx) {
    if (ctx.rank() == 0) {
      int a = 0;
      int b = 0;
      CommHandle ha = ctx.irecv<int>(1, /*tag=*/5, a);
      CommHandle hb = ctx.irecv<int>(1, /*tag=*/5, b);
      ctx.wait(hb);
      ctx.wait(ha);
    }
  });
  EXPECT_NE(stuck.find("STUCK in recv(src=1, tag=5"), std::string::npos)
      << stuck;
}

}  // namespace
}  // namespace kali
