#include "machine/mailbox.hpp"

#include <gtest/gtest.h>

#include <string>

#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "support/check.hpp"

namespace kali {
namespace {

Message make(int src, int tag, std::initializer_list<int> words = {}) {
  Message m;
  m.src = src;
  m.tag = tag;
  for (int w : words) {
    for (std::size_t i = 0; i < sizeof(int); ++i) {
      m.payload.push_back(static_cast<std::byte>((w >> (8 * i)) & 0xff));
    }
  }
  return m;
}

TEST(Mailbox, DeliversMatchingMessage) {
  Mailbox mb;
  mb.push(make(3, 42));
  Message m = mb.recv(3, 42, 1.0);
  EXPECT_EQ(m.src, 3);
  EXPECT_EQ(m.tag, 42);
}

TEST(Mailbox, MatchesOnSourceAndTag) {
  Mailbox mb;
  mb.push(make(1, 10));
  mb.push(make(2, 10));
  mb.push(make(1, 20));
  EXPECT_EQ(mb.recv(2, 10, 1.0).src, 2);
  EXPECT_EQ(mb.recv(1, 20, 1.0).tag, 20);
  EXPECT_EQ(mb.recv(1, 10, 1.0).src, 1);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, AnySourceMatchesFirstArrival) {
  Mailbox mb;
  mb.push(make(5, 7));
  mb.push(make(6, 7));
  EXPECT_EQ(mb.recv(kAnySource, 7, 1.0).src, 5);
  EXPECT_EQ(mb.recv(kAnySource, 7, 1.0).src, 6);
}

TEST(Mailbox, FifoPerSourceAndTag) {
  Mailbox mb;
  mb.push(make(1, 5, {100}));
  mb.push(make(1, 5, {200}));
  Message a = mb.recv(1, 5, 1.0);
  Message b = mb.recv(1, 5, 1.0);
  EXPECT_EQ(static_cast<int>(a.payload[0]), 100);
  EXPECT_EQ(static_cast<int>(b.payload[0]), 200);
}

// Waits that must block run on a machine's fibers: one worker, so the
// ranks run in seed order and each park is a real suspension.
MachineConfig one_worker(bool detection) {
  MachineConfig cfg;
  cfg.sim_workers = 1;
  cfg.deadlock_detection = detection;
  cfg.recv_timeout_wall = 30.0;  // far fallback; no test here waits on it
  return cfg;
}

TEST(Mailbox, BlockingRecvParksAndWakesOnPush) {
  Machine m(2, one_worker(true));
  bool popped = false;
  m.run([&](Context& ctx) {
    Mailbox& mb = m.proc(0).mailbox();
    if (ctx.rank() == 0) {
      // Nothing queued yet: the fiber parks until rank 1 pushes.
      Message msg = mb.recv(1, 4, 30.0, m.deadlock_detector(), 0);
      EXPECT_EQ(msg.src, 1);
      EXPECT_EQ(msg.tag, 4);
      popped = true;
    } else {
      EXPECT_FALSE(popped) << "rank 0 returned before the push";
      mb.push(make(1, 4));
    }
  });
  EXPECT_TRUE(popped);
  EXPECT_EQ(m.proc(0).mailbox().pending(), 0u);
}

TEST(Mailbox, AbortWakesParkedRecvAndThrowerErrorSurfaces) {
  // Detection off, so only the abort can end rank 0's wait.
  Machine m(2, one_worker(false));
  std::string waiter_error;
  try {
    m.run([&](Context& ctx) {
      if (ctx.rank() == 0) {
        try {
          (void)ctx.recv<int>(1, 9);
        } catch (const Error& e) {
          waiter_error = e.what();
          throw;
        }
      } else {
        throw Error("rank 1 failed first");
      }
    });
    FAIL() << "run did not fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 failed first"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NE(waiter_error.find("recv aborted: a peer processor failed"),
            std::string::npos)
      << waiter_error;
}

TEST(Mailbox, StandaloneWaitThatWouldBlockThrows) {
  // Off a machine's fibers a wait may only take what is already queued.
  Mailbox mb;
  try {
    (void)mb.recv(0, 3, 1.0);
    FAIL() << "unsatisfied standalone recv returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("would block a host thread"),
              std::string::npos)
        << e.what();
  }
  mb.push(make(0, 3));
  EXPECT_NO_THROW(mb.await_matches(0, 3, 1, 1.0));
  EXPECT_THROW(mb.await_matches(0, 3, 2, 1.0), Error);
  EXPECT_EQ(mb.recv(0, 3, 1.0).src, 0);
}

TEST(Mailbox, ProbeSeesQueuedMessage) {
  Mailbox mb;
  EXPECT_FALSE(mb.probe(1, 2));
  mb.push(make(1, 2));
  EXPECT_TRUE(mb.probe(1, 2));
  EXPECT_TRUE(mb.probe(kAnySource, 2));
  EXPECT_FALSE(mb.probe(1, 3));
}

}  // namespace
}  // namespace kali
