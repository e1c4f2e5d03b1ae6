// Shared pieces of the two-clock benchmark: the host clock, the per-op
// probe a workload's SPMD program fills, and the span tracer that times
// the benchmark's calls into each library layer from outside.
//
// Nothing here is instrumentation inside src/: spans wrap calls the
// benchmark itself makes, counters are read from ProcCounters, and host
// self-time comes from a SchedulerHook that timestamps every fiber
// dispatch, so time a fiber spent parked is never charged to its span.
#pragma once

#include <chrono>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "machine/scheduler.hpp"

namespace perfbench {

/// Monotone host seconds.
inline double host_now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// The layer boundaries the benchmark's spans sit on, named after the
/// src/ module and public function each wraps.
enum class Layer {
  kHalo,        ///< runtime: DistArray::exchange_halo
  kDoall,       ///< runtime: doall2
  kAllreduce,   ///< machine: allreduce_max
  kAdiIterate,  ///< solvers: adi_iterate
  kMg3Cycle,    ///< solvers: mg3_cycle
  kResidual,    ///< solvers: mg3_residual_norm
  kCount,
};

inline const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kHalo: return "runtime.halo";
    case Layer::kDoall: return "runtime.doall";
    case Layer::kAllreduce: return "machine.collectives";
    case Layer::kAdiIterate: return "solvers.adi_iterate";
    case Layer::kMg3Cycle: return "solvers.mg3_cycle";
    case Layer::kResidual: return "solvers.residual";
    case Layer::kCount: break;
  }
  return "?";
}

/// Host seconds each rank has spent running, from the dispatch timestamps
/// of a single-worker FIFO scheduler (index 0 is the default pick, so the
/// schedule is unchanged).  Only valid with MachineConfig::sim_workers = 1:
/// the hook and every fiber then share one host thread, so reads from a
/// fiber need no synchronization.
class DispatchClock final : public kali::SchedulerHook {
 public:
  explicit DispatchClock(int nranks)
      : busy_(static_cast<std::size_t>(nranks), 0.0) {}

  std::size_t pick_next(const std::vector<int>& ready) override {
    const double now = host_now();
    if (running_ >= 0) {
      busy_[static_cast<std::size_t>(running_)] += now - since_;
    }
    running_ = ready.front();
    since_ = now;
    return 0;
  }

  /// Host seconds `rank` has run so far; call from that rank's fiber.
  [[nodiscard]] double busy(int rank) const {
    const double live = running_ == rank ? host_now() - since_ : 0.0;
    return busy_[static_cast<std::size_t>(rank)] + live;
  }

 private:
  std::vector<double> busy_;
  int running_ = -1;
  double since_ = 0.0;
};

/// One call into a layer on one rank.
struct Span {
  Layer layer = Layer::kCount;
  int rank = -1;
  double host_start = 0.0;
  double host_end = 0.0;
  double host_self = 0.0;  ///< host seconds the rank actually ran inside
  double modeled_start = 0.0;
  double modeled_end = 0.0;
  std::uint64_t msgs = 0;  ///< ProcCounters deltas over the call
  std::uint64_t bytes = 0;
  double flops = 0.0;
  double compute = 0.0;
  double overhead = 0.0;
  double wait = 0.0;
  double link_wait = 0.0;
};

/// In-memory span recorder: one vector per rank, each written only by its
/// own fiber.
class Tracer {
 public:
  Tracer(int nranks, const DispatchClock& clock)
      : clock_(&clock), spans_(static_cast<std::size_t>(nranks)) {}

  /// Runs `fn` and records its span.  A throwing call records nothing:
  /// the op it belongs to has failed and its spans are discarded.
  template <class Fn>
  decltype(auto) record(kali::Context& ctx, Layer layer, Fn&& fn) {
    Span s;
    s.layer = layer;
    s.rank = ctx.rank();
    const kali::ProcCounters before = scalars(ctx.proc().counters());
    s.modeled_start = ctx.clock();
    s.host_start = host_now();
    const double busy0 = clock_->busy(s.rank);
    if constexpr (std::is_void_v<decltype(fn())>) {
      std::forward<Fn>(fn)();
      close(ctx, s, before, busy0);
    } else {
      auto result = std::forward<Fn>(fn)();
      close(ctx, s, before, busy0);
      return result;
    }
  }

  [[nodiscard]] const std::vector<std::vector<Span>>& spans() const {
    return spans_;
  }

 private:
  // Copies only the scalar counters: the per-tag maps are not needed per
  // span and copying them would cost far more than the calls being timed.
  static kali::ProcCounters scalars(const kali::ProcCounters& c) {
    kali::ProcCounters s;
    s.msgs_sent = c.msgs_sent;
    s.bytes_sent = c.bytes_sent;
    s.flops = c.flops;
    s.compute_time = c.compute_time;
    s.overhead_time = c.overhead_time;
    s.wait_time = c.wait_time;
    s.link_wait_time = c.link_wait_time;
    return s;
  }

  void close(kali::Context& ctx, Span& s, const kali::ProcCounters& b,
             double busy0) {
    s.host_self = clock_->busy(s.rank) - busy0;
    s.host_end = host_now();
    s.modeled_end = ctx.clock();
    const kali::ProcCounters& c = ctx.proc().counters();
    s.msgs = c.msgs_sent - b.msgs_sent;
    s.bytes = c.bytes_sent - b.bytes_sent;
    s.flops = c.flops - b.flops;
    s.compute = c.compute_time - b.compute_time;
    s.overhead = c.overhead_time - b.overhead_time;
    s.wait = c.wait_time - b.wait_time;
    s.link_wait = c.link_wait_time - b.link_wait_time;
    spans_[static_cast<std::size_t>(s.rank)].push_back(s);
  }

  const DispatchClock* clock_;
  std::vector<std::vector<Span>> spans_;
};

/// Run `fn` inside a span when tracing, or plainly when `t` is null.
template <class Fn>
decltype(auto) traced(Tracer* t, kali::Context& ctx, Layer layer, Fn&& fn) {
  if (t == nullptr) {
    return std::forward<Fn>(fn)();
  }
  return t->record(ctx, layer, std::forward<Fn>(fn));
}

/// What one op's SPMD program reports back to the host, in rank-indexed
/// slots (each rank writes only its own) plus rank-0-only solver figures.
struct OpProbe {
  explicit OpProbe(int nranks)
      : host_start(static_cast<std::size_t>(nranks), 0.0),
        host_end(static_cast<std::size_t>(nranks), 0.0),
        clock_start(static_cast<std::size_t>(nranks), 0.0),
        clock_end(static_cast<std::size_t>(nranks), 0.0),
        counters_start(static_cast<std::size_t>(nranks)),
        counters_end(static_cast<std::size_t>(nranks)) {}

  /// Marks the end of set-up: a zero-cost (in the model) host rendezvous
  /// of every rank, after which this rank's timed phase begins.  Returns
  /// false when the op measures set-up only and the program should return.
  bool begin_timed(kali::Context& ctx) {
    kali::compact_edge_ledgers(ctx);
    const auto r = static_cast<std::size_t>(ctx.rank());
    counters_start[r] = ctx.proc().counters();
    clock_start[r] = ctx.clock();
    host_start[r] = host_now();
    return !setup_only;
  }

  void end_timed(kali::Context& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    host_end[r] = host_now();
    clock_end[r] = ctx.clock();
    counters_end[r] = ctx.proc().counters();
  }

  bool setup_only = false;
  std::vector<double> host_start, host_end;
  std::vector<double> clock_start, clock_end;
  std::vector<kali::ProcCounters> counters_start, counters_end;

  std::vector<double> field;  ///< the op's final global field (verification)
  std::vector<double> norms;  ///< residual / update norms, in call order
  int iterations = 0;         ///< steps, iterations or cycles run
};

}  // namespace perfbench
