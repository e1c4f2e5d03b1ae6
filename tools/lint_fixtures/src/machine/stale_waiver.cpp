// Fixture: a waiver must excuse a finding.  One whose code is gone, or
// that names the wrong rule, is flagged itself; a live one is not.

namespace kali {

// kali-lint: allow(raw-thread) — orphan  // LINT-EXPECT: stale-waiver
int no_threads_here() { return 0; }

// kali-lint: allow(wall-clock) — wrong rule  // LINT-EXPECT: stale-waiver
thread_local int unexcused = 0;  // LINT-EXPECT: raw-thread

// kali-lint: allow(raw-thread) — live: it excuses the line below
thread_local int excused = 0;

}  // namespace kali
