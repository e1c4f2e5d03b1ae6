#include "machine/deadlock.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"

namespace kali {

namespace {

std::string src_label(int src) {
  return src == kAnySource ? std::string("any") : std::to_string(src);
}

}  // namespace

std::string describe_pending(const Mailbox& mb, int owner_rank,
                             std::uint32_t max_epoch) {
  std::string out;
  for (const auto& pm : mb.snapshot()) {
    if (pm.epoch > max_epoch) {
      continue;
    }
    out += "    " + std::to_string(pm.src) + " -> " +
           std::to_string(owner_rank) + " tag " + std::to_string(pm.tag) +
           " (" + tag_name(pm.tag) + ", " + std::to_string(pm.bytes) +
           " B, epoch " + std::to_string(pm.epoch) + ")\n";
  }
  return out;
}

std::size_t stale_pending(const Mailbox& mb, std::uint32_t max_epoch) {
  std::size_t n = 0;
  for (const auto& pm : mb.snapshot()) {
    if (pm.epoch <= max_epoch) {
      ++n;
    }
  }
  return n;
}

DeadlockDetector::DeadlockDetector(std::vector<Mailbox*> mailboxes)
    : mailboxes_(std::move(mailboxes)),
      ranks_(mailboxes_.size()),
      first_waiter_(mailboxes_.size(), -1),
      visit_(mailboxes_.size(), 0) {}

void DeadlockDetector::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& r : ranks_) {
    r = RankState{};
  }
  std::fill(first_waiter_.begin(), first_waiter_.end(), -1);
  std::fill(visit_.begin(), visit_.end(), 0);
  walk_ = 0;
  any_source_waiters_ = 0;
  tripped_ = false;
}

void DeadlockDetector::enter_wait(int rank, int src, int tag) {
  std::lock_guard<std::mutex> lk(mu_);
  unlink_wait_locked(rank);
  auto& rs = state(rank);
  rs.state = State::kWaiting;
  rs.want_src = src;
  rs.want_tag = tag;
  link_wait_locked(rank);
  if (!local_check_ok_locked() || !chain_live_locked(rank)) {
    check_locked();
    return;
  }
  cross_check_locked();
}

void DeadlockDetector::leave_wait(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  unlink_wait_locked(rank);
  state(rank).state = State::kRunning;
}

void DeadlockDetector::mark_done(int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  unlink_wait_locked(rank);
  state(rank).state = State::kDone;
  if (!local_check_ok_locked()) {
    check_locked();
    return;
  }
  // Every chain that ended at this rank passes one of its direct waiters,
  // and those stay live exactly when their match is already queued.
  for (int w = first_waiter_[static_cast<std::size_t>(rank)]; w >= 0;
       w = state(w).next_waiter) {
    if (!mailbox(w).probe(rank, state(w).want_tag)) {
      check_locked();
      return;
    }
  }
  cross_check_locked();
}

void DeadlockDetector::link_wait_locked(int rank) {
  auto& rs = state(rank);
  if (rs.want_src == kAnySource) {
    ++any_source_waiters_;
    return;
  }
  if (rs.want_src < 0 || rs.want_src >= static_cast<int>(ranks_.size())) {
    return;  // no rank can feed it; the chain walk flags it
  }
  int& head = first_waiter_[static_cast<std::size_t>(rs.want_src)];
  rs.prev_waiter = -1;
  rs.next_waiter = head;
  if (head >= 0) {
    state(head).prev_waiter = rank;
  }
  head = rank;
}

void DeadlockDetector::unlink_wait_locked(int rank) {
  auto& rs = state(rank);
  if (rs.state != State::kWaiting) {
    return;
  }
  if (rs.want_src == kAnySource) {
    --any_source_waiters_;
    return;
  }
  if (rs.want_src < 0 || rs.want_src >= static_cast<int>(ranks_.size())) {
    return;
  }
  if (rs.prev_waiter >= 0) {
    state(rs.prev_waiter).next_waiter = rs.next_waiter;
  } else {
    first_waiter_[static_cast<std::size_t>(rs.want_src)] = rs.next_waiter;
  }
  if (rs.next_waiter >= 0) {
    state(rs.next_waiter).prev_waiter = rs.prev_waiter;
  }
  rs.prev_waiter = -1;
  rs.next_waiter = -1;
}

bool DeadlockDetector::local_check_ok_locked() const {
  return any_source_waiters_ == 0 && !tripped_;
}

bool DeadlockDetector::chain_live_locked(int rank) {
  const int n = static_cast<int>(ranks_.size());
  if (++walk_ == 0) {  // stamp wrapped: clear the stale marks
    std::fill(visit_.begin(), visit_.end(), 0);
    walk_ = 1;
  }
  for (int r = rank;;) {
    const auto& rs = state(r);
    if (rs.state == State::kRunning) {
      return true;
    }
    if (rs.state == State::kDone) {
      return false;
    }
    if (mailbox(r).probe(rs.want_src, rs.want_tag)) {
      return true;
    }
    visit_[static_cast<std::size_t>(r)] = walk_;
    r = rs.want_src;
    if (r < 0 || r >= n || visit_[static_cast<std::size_t>(r)] == walk_) {
      return false;
    }
  }
}

bool DeadlockDetector::find_stuck_locked(std::vector<bool>& stuck) const {
  const int n = static_cast<int>(ranks_.size());
  // Seed the live set: running ranks can still send, and a waiter whose
  // match is already queued will pop it and run again.  Done ranks are not
  // live — they will never send another message.
  std::vector<bool> live(static_cast<std::size_t>(n), false);
  bool any_waiting = false;
  for (int r = 0; r < n; ++r) {
    const auto& rs = ranks_[static_cast<std::size_t>(r)];
    if (rs.state == State::kRunning) {
      live[static_cast<std::size_t>(r)] = true;
    } else if (rs.state == State::kWaiting) {
      any_waiting = true;
      if (mailbox(r).probe(rs.want_src, rs.want_tag)) {
        live[static_cast<std::size_t>(r)] = true;
      }
    }
  }
  if (!any_waiting) {
    return false;
  }
  // Propagate: a waiter is live if the rank it expects could still feed it
  // (for kAnySource, if any other rank could).  A source outside [0, n) can
  // never send, so such a waiter stays dead unless its match is queued.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int r = 0; r < n; ++r) {
      const auto& rs = ranks_[static_cast<std::size_t>(r)];
      if (live[static_cast<std::size_t>(r)] || rs.state != State::kWaiting) {
        continue;
      }
      bool feedable = false;
      if (rs.want_src == kAnySource) {
        for (int q = 0; q < n; ++q) {
          if (q != r && live[static_cast<std::size_t>(q)]) {
            feedable = true;
            break;
          }
        }
      } else if (rs.want_src >= 0 && rs.want_src < n) {
        feedable = live[static_cast<std::size_t>(rs.want_src)];
      }
      if (feedable) {
        live[static_cast<std::size_t>(r)] = true;
        changed = true;
      }
    }
  }
  stuck.assign(static_cast<std::size_t>(n), false);
  bool any_stuck = false;
  for (int r = 0; r < n; ++r) {
    if (ranks_[static_cast<std::size_t>(r)].state == State::kWaiting &&
        !live[static_cast<std::size_t>(r)]) {
      stuck[static_cast<std::size_t>(r)] = true;
      any_stuck = true;
    }
  }
  return any_stuck;
}

void DeadlockDetector::check_locked() {
  std::vector<bool> stuck;
  if (find_stuck_locked(stuck)) {
    tripped_ = true;
    throw Error(dump_locked(stuck));
  }
}

void DeadlockDetector::cross_check_locked() const {
#if defined(KALI_CHECK_INVARIANTS)
  std::vector<bool> stuck;
  KALI_INVARIANT(!find_stuck_locked(stuck),
                 "deadlock detector: the local check missed a stuck rank "
                 "that the full fixed point finds");
#endif
}

std::string DeadlockDetector::dump_locked(
    const std::vector<bool>& stuck) const {
  std::ostringstream os;
  int nstuck = 0;
  for (bool s : stuck) {
    nstuck += s ? 1 : 0;
  }
  os << "deadlock detected by the wait-for-graph check: " << nstuck
     << " rank(s) blocked in recv with no rank or in-flight message able to "
        "satisfy them\n";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const auto& rs = ranks_[r];
    os << "  rank " << r << ": ";
    switch (rs.state) {
      case State::kRunning:
        os << "running\n";
        continue;
      case State::kDone:
        os << "done (program finished; will never send again)\n";
        continue;
      case State::kWaiting:
        os << (stuck[r] ? "STUCK" : "waiting") << " in recv(src="
           << src_label(rs.want_src) << ", tag=" << rs.want_tag << " "
           << tag_name(rs.want_tag) << ")\n";
        break;
    }
    const std::string pending = describe_pending(*mailboxes_[r],
                                                 static_cast<int>(r));
    if (pending.empty()) {
      os << "    mailbox empty\n";
    } else {
      os << pending;
    }
  }
  os << "  (the wall-clock recv timeout remains as a fallback; set "
        "MachineConfig::deadlock_detection = false to rely on it alone)";
  return os.str();
}

}  // namespace kali
