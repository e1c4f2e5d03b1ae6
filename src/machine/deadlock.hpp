// Wait-for-graph deadlock detection for blocking matched receives.
//
// Every rank that parks in a mailbox wait (Mailbox::recv or the
// await_matches of a nonblocking completion) publishes a wait edge
// (waiter -> expected (src, tag)) before parking.  A waiting rank is
// *live* if a matching message is already queued in its mailbox, or if
// some rank that could still produce one is live.  If a waiter ends up
// outside the live set, the waiters form a closed wait-for graph no
// in-flight message can break — a certain deadlock — and the detector
// throws a full diagnostic dump (per-rank state, expected source/tag with
// registry names, mailbox contents) the instant the set closes, instead of
// letting the run sit out the wall-clock recv timeout (which remains the
// fallback for stalls the graph cannot prove, e.g. a live peer that simply
// never sends).
//
// Liveness is lost only at two events: a running rank starts waiting
// (enter_wait) or retires (mark_done).  Pushes only add matches, pops only
// happen on running ranks, and leave_wait makes a rank running again.  So
// if every waiter was live before an event, the event is checked locally:
//  * enter_wait(r, src) with a specific src walks r's wait chain
//    r -> want_src -> ... probing only the mailboxes on it.  The chain is
//    live at a running rank or a waiter whose match is queued, and dead at
//    a done rank, an out-of-range source or a rank it already visited.
//    With specific sources every waiter has one outgoing edge, so only r
//    and the ranks whose chains pass through r can lose liveness, and they
//    stay live if and only if r does;
//  * mark_done(r) probes only the ranks waiting directly on r (a per-source
//    waiter list), since every other chain through r passes one of them.
// Either costs O(chain) / O(waiters on r) instead of the O(P) fixed point
// over the whole graph.  The full fixed point still runs while any
// kAnySource waiter is registered (a wildcard has an edge to every rank),
// when the local check finds a dead rank (it then builds the stuck set and
// the dump), and after a throw (the stuck set stays registered).  Under
// KALI_CHECK_INVARIANTS every local "no deadlock" verdict is cross-checked
// against the full fixed point.
//
// Soundness rests on two properties of the machine layer:
//  * pushes are synchronous — Context::send_bytes deposits directly into the
//    destination mailbox, so "in flight" means "queued in the mailbox" and
//    Mailbox::probe sees every message that exists;
//  * mailboxes are single-consumer — only the owning rank pops, and it is
//    never popping while registered as waiting, so a probe observed under
//    the detector lock cannot be invalidated by a concurrent pop.
//
// Lock order: detector mutex, then mailbox mutex (inside probe/snapshot).
// The mailbox's wait loop never calls into the detector while holding its
// own lock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/mailbox.hpp"

namespace kali {

/// One line per queued message: "src -> owner tag <name> (<bytes> B, epoch
/// <e>)".  Messages with epoch > max_epoch are omitted (post-barrier early
/// arrivals are not leaks of the phase being checked).  Empty string if
/// nothing qualifies.
[[nodiscard]] std::string describe_pending(
    const Mailbox& mb, int owner_rank,
    std::uint32_t max_epoch = UINT32_MAX);

/// Number of queued messages with epoch <= max_epoch: the sent-but-never-
/// received count the leak checks assert to be zero at sync_clocks (epoch
/// filter skips messages a faster peer already sent into the *next* phase)
/// and at machine teardown (max_epoch = UINT32_MAX: everything is a leak).
[[nodiscard]] std::size_t stale_pending(const Mailbox& mb,
                                        std::uint32_t max_epoch);

class DeadlockDetector {
 public:
  /// One mailbox per rank, indexed by rank.  Pointers must outlive the
  /// detector (Machine owns both).
  explicit DeadlockDetector(std::vector<Mailbox*> mailboxes);

  /// Forget all wait state (call before each Machine::run).
  void reset();

  /// Rank `rank` is about to block waiting for (src, tag).  Checks the
  /// wait-for graph (a chain walk for a specific src); throws kali::Error
  /// with the diagnostic dump if this registration closes a deadlocked set.
  void enter_wait(int rank, int src, int tag);

  /// Rank `rank` woke up (it will re-check its mailbox and either pop or
  /// re-register).  Must be called before the rank pops, so a rank is never
  /// simultaneously "waiting" and consuming.
  void leave_wait(int rank);

  /// Rank `rank` finished its program and will never send again.  Checks
  /// the ranks waiting on it: they may have just become unsatisfiable.
  void mark_done(int rank);

 private:
  enum class State : std::uint8_t { kRunning, kWaiting, kDone };

  struct RankState {
    State state = State::kRunning;
    int want_src = 0;
    int want_tag = 0;
    /// Neighbours in the waiter list of want_src (-1 at either end); only
    /// linked while waiting on an in-range specific source.
    int prev_waiter = -1;
    int next_waiter = -1;
  };

  /// Add a waiting rank's edge to its source's waiter list (or to the
  /// kAnySource count); remove it again (a no-op unless the rank waits).
  void link_wait_locked(int rank);
  void unlink_wait_locked(int rank);

  /// True while the local checks are exact: no kAnySource waiter is
  /// registered and no deadlock has been thrown since reset().
  [[nodiscard]] bool local_check_ok_locked() const;

  /// Walk `rank`'s wait chain: true if it reaches a running rank or a
  /// waiter whose match is queued.
  [[nodiscard]] bool chain_live_locked(int rank);

  /// The full liveness fixed point: marks every waiter no live rank or
  /// queued message can satisfy.  Returns whether any is marked.
  [[nodiscard]] bool find_stuck_locked(std::vector<bool>& stuck) const;

  /// Throws if the current wait-for graph contains a closed stuck set.
  void check_locked();

  /// After a local check found no stuck rank: the full fixed point must
  /// agree (KALI_CHECK_INVARIANTS builds only).
  void cross_check_locked() const;

  [[nodiscard]] std::string dump_locked(
      const std::vector<bool>& stuck) const;

  [[nodiscard]] Mailbox& mailbox(int rank) const {
    return *mailboxes_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] RankState& state(int rank) {
    return ranks_[static_cast<std::size_t>(rank)];
  }

  std::vector<Mailbox*> mailboxes_;
  std::vector<RankState> ranks_;
  /// Head of each source rank's waiter list (-1 when empty).
  std::vector<int> first_waiter_;
  /// Chain-walk visit marks: rank r is on the current walk iff
  /// visit_[r] == walk_.
  std::vector<std::uint32_t> visit_;
  std::uint32_t walk_ = 0;
  int any_source_waiters_ = 0;
  bool tripped_ = false;
  std::mutex mu_;
};

}  // namespace kali
