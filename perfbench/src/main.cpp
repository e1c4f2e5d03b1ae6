// kali_perfbench: one benchmark run of one workload.
//
//   kali_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--span-dir <dir>]
//
// Runs fresh-Machine ops of the workload (set-up, timed phase, output
// check) against the library's default MachineConfig with only topology,
// contention tier and sim_workers pinned, for about --seconds, and prints
// one JSON object as its last line: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.  Every op is also a determinism
// check: its modeled and count figures must equal the first op's, across
// a second sim_workers value and between traced and untraced ops.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "machine/machine.hpp"
#include "machine/message.hpp"
#include "support/check.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// sim_workers of the timed ops: the library default (one worker per
// hardware thread) on the 4-core reference machine, capped at 4 so host
// times stay comparable on bigger hosts.  Traced ops, and the untraced
// ops their overhead is measured against, use one worker: the dispatch
// clock that gives host self-time needs it.
int timed_workers() {
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}
constexpr int kMinOps = 3;        // medians need at least three samples
constexpr int kSetupReps = 5;     // set-up-only samples for setup_s: this many,
constexpr double kSetupShare = 0.1;  // or more while within this share of
                                     // --seconds: set-up is short and noisy
constexpr double kHardStop = 120.0;  // start no op after this many seconds

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--span-dir") {
      a.span_dir = val;
    } else {
      throw kali::Error("unknown argument " + key);
    }
  }
  KALI_CHECK(argc % 2 == 1, "arguments come in --key value pairs");
  KALI_CHECK(!a.workload.empty(), "--workload is required");
  return a;
}

/// Layer of a message tag, by the message.hpp / collectives.hpp bands.
enum class Band { kHalo, kRedistribute, kRemap, kCollectives, kKernels, kOther };

Band band_of(int tag) {
  if (tag >= kali::kCollectiveTagBase) {
    return Band::kCollectives;
  }
  if (tag >= kali::kKernelTagBase) {
    return Band::kKernels;
  }
  if (tag == kali::kTagRedistData) {
    return Band::kRedistribute;
  }
  if (tag == kali::kTagRemap) {
    return Band::kRemap;
  }
  if ((tag >= kali::kTagHaloBase && tag < kali::kTagHaloBase + 12) ||
      (tag >= kali::kTagHaloCornerBase && tag < kali::kTagHaloCornerBase + 27) ||
      tag == kali::kTagHaloCornerPack) {
    return Band::kHalo;
  }
  return Band::kOther;
}

/// Per-layer span totals of one traced op.
struct LayerTotals {
  std::size_t spans = 0;  ///< calls summed over ranks
  double modeled = 0.0;   ///< modeled seconds summed over ranks
  double host_self = 0.0; ///< host seconds the ranks ran inside the calls
};

struct OpResult {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  double host_wall_s = 0.0;
  std::size_t mailbox_peak = 0;
  /// Modeled and count figures: must be identical in every op.
  std::map<std::string, double> exact;
  std::vector<LayerTotals> layers;
  std::vector<Span> spans;
};

std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xffU)) * 1099511628211ULL;
    }
  }
  return h;
}

/// The timed phase's modeled and count figures, from the per-rank counter
/// snapshots the program took at its start and end.
std::map<std::string, double> exact_figures(const OpProbe& p, std::string& err) {
  const auto nranks = static_cast<double>(p.clock_start.size());
  double makespan_end = p.clock_end.front();
  double makespan_start = p.clock_start.front();
  double clock_sum = 0.0, compute = 0.0, overhead = 0.0, wait = 0.0;
  double link_wait = 0.0, flops = 0.0, hidden = 0.0, wire = 0.0;
  double msgs = 0.0, bytes = 0.0;
  std::map<Band, double> bands;
  for (std::size_t r = 0; r < p.clock_start.size(); ++r) {
    const kali::ProcCounters& a = p.counters_start[r];
    const kali::ProcCounters& b = p.counters_end[r];
    makespan_end = std::max(makespan_end, p.clock_end[r]);
    makespan_start = std::min(makespan_start, p.clock_start[r]);
    clock_sum += p.clock_end[r] - p.clock_start[r];
    compute += b.compute_time - a.compute_time;
    overhead += b.overhead_time - a.overhead_time;
    wait += b.wait_time - a.wait_time;
    link_wait += b.link_wait_time - a.link_wait_time;
    flops += b.flops - a.flops;
    hidden += b.overlap_hidden_time - a.overlap_hidden_time;
    wire += b.overlap_wire_time - a.overlap_wire_time;
    msgs += static_cast<double>(b.msgs_sent - a.msgs_sent);
    bytes += static_cast<double>(b.bytes_sent - a.bytes_sent);
    for (const auto& [tag, n] : b.sent_by_tag) {
      const auto it = a.sent_by_tag.find(tag);
      const std::uint64_t before = it == a.sent_by_tag.end() ? 0 : it->second;
      bands[band_of(tag)] += static_cast<double>(n - before);
    }
  }
  double banded = 0.0;
  for (const auto& [band, n] : bands) {
    banded += n;
  }
  if (banded != msgs) {
    err = "tag bands do not sum to machine.msgs";
  }
  const double makespan = makespan_end - makespan_start;
  std::map<std::string, double> m;
  m["modeled_s"] = makespan;
  m["machine.msgs"] = msgs;
  m["machine.wire_bytes"] = bytes;
  m["machine.overhead_s"] = overhead / nranks;
  m["machine.wait_s"] = wait / nranks;
  m["machine.link_wait_s"] = link_wait / nranks;
  m["machine.unattributed_s"] =
      (clock_sum - compute - overhead - wait - link_wait) / nranks;
  m["machine.overlap_ratio"] = wire > 0.0 ? hidden / wire : 0.0;
  m["machine.collectives.msgs"] = bands[Band::kCollectives];
  m["runtime.halo.msgs"] = bands[Band::kHalo];
  m["runtime.redistribute.msgs"] = bands[Band::kRedistribute];
  m["runtime.remap.msgs"] = bands[Band::kRemap];
  m["kernels.flops"] = flops;
  m["kernels.compute_s"] = compute / nranks;
  m["kernels.utilization"] = makespan > 0.0 ? compute / (nranks * makespan) : 0.0;
  m["solvers.cycles"] = p.iterations;
  m["solvers.residual_factor"] =
      p.norms.size() >= 2 && p.norms.front() > 0.0
          ? p.norms.back() / p.norms.front()
          : 0.0;
  m["result.digest"] = static_cast<double>(fnv1a(p.field) >> 11);
  return m;
}

OpResult run_op(const Workload& w, int workers, bool trace,
               bool setup_only = false) {
  OpResult res;
  const int nranks = w.nprocs();
  OpProbe probe(nranks);
  probe.setup_only = setup_only;
  probe.field.assign(w.field_size(), 0.0);
  DispatchClock clock(nranks);
  std::optional<Tracer> tracer;
  kali::MachineConfig cfg;  // the library defaults, except:
  cfg.topology = kali::Topology::kHypercube;
  cfg.link_contention = w.contention();
  cfg.sim_workers = workers;
  if (trace) {
    KALI_CHECK(workers == 1, "the dispatch clock needs a single worker");
    cfg.sim_hook = &clock;
    tracer.emplace(nranks, clock);
  }
  kali::MachineStats stats;
  const double t0 = host_now();
  try {
    kali::Machine m(nranks, cfg);
    m.run([&](kali::Context& ctx) {
      w.program(ctx, probe, tracer ? &*tracer : nullptr);
    });
    stats = m.stats();
  } catch (const std::exception& e) {
    res.error = e.what();
    return res;
  }
  const double start = *std::min_element(probe.host_start.begin(), probe.host_start.end());
  res.setup_s = start - t0;
  if (setup_only) {
    res.ok = true;
    return res;
  }
  const double end = *std::max_element(probe.host_end.begin(), probe.host_end.end());
  res.host_wall_s = end - start;
  res.mailbox_peak = stats.max_mailbox_depth();
  res.exact = exact_figures(probe, res.error);
  if (!stats.unmatched_by_tag().empty()) {
    res.error = "unmatched messages left after the run";
  } else if (stats.self_msgs_total() != 0) {
    res.error = "self-messages sent";
  } else if (res.error.empty()) {
    res.error = w.verify(probe);
  }
  if (tracer) {
    res.layers.assign(static_cast<std::size_t>(Layer::kCount), LayerTotals{});
    for (const auto& per_rank : tracer->spans()) {
      for (const Span& s : per_rank) {
        LayerTotals& t = res.layers[static_cast<std::size_t>(s.layer)];
        ++t.spans;
        t.modeled += s.modeled_end - s.modeled_start;
        t.host_self += s.host_self;
        res.spans.push_back(s);
      }
    }
  }
  res.ok = res.error.empty();
  return res;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process in MB (VmHWM).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "layer,rank,host_start,host_end,host_self,modeled_start,modeled_end,"
         "msgs,bytes,flops,compute,overhead,wait,link_wait\n";
  out.precision(17);
  for (const Span& s : spans) {
    out << layer_name(s.layer) << ',' << s.rank << ',' << s.host_start << ','
        << s.host_end << ',' << s.host_self << ',' << s.modeled_start << ','
        << s.modeled_end << ',' << s.msgs << ',' << s.bytes << ',' << s.flops
        << ',' << s.compute << ',' << s.overhead << ',' << s.wait << ','
        << s.link_wait << '\n';
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_result(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// What an op is for.  Set-up ops stop at the start of the timed phase;
/// set-up and timed ops run on timed_workers(), the others on one worker.
enum class Kind { kSetup, kTimed, kSingle, kTraced };

int run(const Args& args) {
  const auto workload = make_workload(args.workload, args.seed);
  std::cerr << "instance: " << workload->describe() << "\n";

  const double t_begin = host_now();
  const auto elapsed = [&] { return host_now() - t_begin; };
  std::vector<std::pair<Kind, OpResult>> ops;
  const auto count = [&](Kind k) {
    return static_cast<int>(std::count_if(
        ops.begin(), ops.end(), [&](const auto& o) { return o.first == k; }));
  };
  const auto keep_going = [&](Kind k, double share) {
    if (elapsed() > kHardStop) {
      return count(k) == 0;
    }
    return count(k) < kMinOps || elapsed() < share * args.seconds;
  };
  const auto add = [&](Kind k) {
    const bool many = k == Kind::kSetup || k == Kind::kTimed;
    ops.emplace_back(k, run_op(*workload, many ? timed_workers() : 1,
                               k == Kind::kTraced, k == Kind::kSetup));
  };
  // One op on the other worker count checks determinism across worker
  // counts.  With --trace 0 it runs first, and peak_rss_mb is read right
  // after it: with one FIFO worker, in-flight buffering (and so the peak)
  // repeats from run to run, and no worker-thread arenas exist yet.
  double rss_mb = 0.0;
  if (args.trace) {
    while (keep_going(Kind::kSingle, 0.5)) {
      add(Kind::kSingle);
    }
    add(Kind::kTimed);
    while (keep_going(Kind::kTraced, 1.0)) {
      add(Kind::kTraced);
    }
  } else {
    add(Kind::kSingle);
    rss_mb = peak_rss_mb();
    // Set-up-only ops next: they warm the allocator like any earlier run
    // in a process would, and give setup_s more samples than the timed
    // ops alone.
    while (count(Kind::kSetup) < kSetupReps ||
           elapsed() < kSetupShare * args.seconds) {
      add(Kind::kSetup);
    }
    while (keep_going(Kind::kTimed, 1.0)) {
      add(Kind::kTimed);
    }
  }

  // Determinism: every op's modeled and count figures equal the first
  // good op's, whatever its worker count or tracing.  Set-up-only ops
  // count as attempted operations only when they fail.
  const OpResult* ref = nullptr;
  std::size_t attempted = 0, failed = 0;
  for (auto& [kind, op] : ops) {
    if (op.ok && kind != Kind::kSetup) {
      if (ref == nullptr) {
        ref = &op;
      } else if (op.exact != ref->exact) {
        op.ok = false;
        op.error = "modeled or count figures differ between ops";
      }
    }
    attempted += kind != Kind::kSetup || !op.ok ? 1 : 0;
    if (!op.ok) {
      ++failed;
      std::cerr << "op failed: " << op.error << "\n";
    }
  }
  const std::map<std::string, double> none;
  const std::map<std::string, double>& exact = ref ? ref->exact : none;
  const auto fig = [&](const std::string& name) {
    const auto it = exact.find(name);
    return it == exact.end() ? 0.0 : it->second;
  };
  // Median of `field` over the good ops whose kind is in `kinds`.
  const auto host_median = [&](std::initializer_list<Kind> kinds, auto field) {
    std::vector<double> v;
    for (const auto& [kind, op] : ops) {
      if (op.ok && std::find(kinds.begin(), kinds.end(), kind) != kinds.end()) {
        v.push_back(field(op));
      }
    }
    return median(v);
  };
  const auto wall = [](const OpResult& o) { return o.host_wall_s; };

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"modeled_s", fig("modeled_s"), "s"},
        {"host_wall_s", host_median({Kind::kTimed}, wall), "s"},
        {"setup_s",
         host_median({Kind::kSetup, Kind::kTimed},
                     [](const OpResult& o) { return o.setup_s; }),
         "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const auto nranks = static_cast<double>(workload->nprocs());
    const auto first_traced = std::find_if(ops.begin(), ops.end(), [](const auto& o) {
      return o.first == Kind::kTraced && o.second.ok;
    });
    // Per-layer span figures: modeled seconds as a mean per rank (for the
    // solver calls, per call), host self-seconds summed over ranks.
    const auto layer_modeled = [&](Layer l, bool per_call) {
      if (first_traced == ops.end()) {
        return 0.0;
      }
      const LayerTotals& t = first_traced->second.layers[static_cast<std::size_t>(l)];
      const double div = per_call ? static_cast<double>(t.spans) : nranks;
      return div > 0.0 ? t.modeled / div : 0.0;
    };
    const auto layer_host = [&](Layer l, bool per_call) {
      return host_median({Kind::kTraced}, [&](const OpResult& o) {
        const LayerTotals& t = o.layers[static_cast<std::size_t>(l)];
        const double calls = static_cast<double>(t.spans) / nranks;
        return per_call ? (calls > 0.0 ? t.host_self / calls : 0.0) : t.host_self;
      });
    };
    // Host figures of the traced run are single-worker, like its spans.
    const double single_wall = host_median({Kind::kSingle}, wall);
    std::size_t mailbox_peak = 0;
    for (const auto& [kind, op] : ops) {
      if (kind == Kind::kSingle) {
        mailbox_peak = std::max(mailbox_peak, op.mailbox_peak);
      }
    }
    const double msgs = fig("machine.msgs");
    metrics = {
        {"machine.msgs", msgs, "count"},
        {"machine.wire_bytes", fig("machine.wire_bytes"), "bytes"},
        {"machine.host_us_per_msg", msgs > 0.0 ? single_wall / msgs * 1e6 : 0.0, "us"},
        {"machine.overhead_s", fig("machine.overhead_s"), "s"},
        {"machine.wait_s", fig("machine.wait_s"), "s"},
        {"machine.link_wait_s", fig("machine.link_wait_s"), "s"},
        {"machine.unattributed_s", fig("machine.unattributed_s"), "s"},
        {"machine.overlap_ratio", fig("machine.overlap_ratio"), "ratio"},
        {"machine.mailbox_peak", static_cast<double>(mailbox_peak), "count"},
        {"machine.collectives.msgs", fig("machine.collectives.msgs"), "count"},
        {"runtime.halo.msgs", fig("runtime.halo.msgs"), "count"},
        {"runtime.halo.modeled_s", layer_modeled(Layer::kHalo, false), "s"},
        {"runtime.halo.host_s", layer_host(Layer::kHalo, false), "s"},
        {"runtime.doall.modeled_s", layer_modeled(Layer::kDoall, false), "s"},
        {"runtime.doall.host_s", layer_host(Layer::kDoall, false), "s"},
        {"runtime.redistribute.msgs", fig("runtime.redistribute.msgs"), "count"},
        {"runtime.remap.msgs", fig("runtime.remap.msgs"), "count"},
        {"kernels.flops", fig("kernels.flops"), "count"},
        {"kernels.compute_s", fig("kernels.compute_s"), "s"},
        {"kernels.utilization", fig("kernels.utilization"), "ratio"},
        {"solvers.adi_iterate.modeled_s", layer_modeled(Layer::kAdiIterate, true), "s"},
        {"solvers.adi_iterate.host_s", layer_host(Layer::kAdiIterate, true), "s"},
        {"solvers.mg3_cycle.modeled_s", layer_modeled(Layer::kMg3Cycle, true), "s"},
        {"solvers.mg3_cycle.host_s", layer_host(Layer::kMg3Cycle, true), "s"},
        {"solvers.residual.modeled_s", layer_modeled(Layer::kResidual, true), "s"},
        {"solvers.residual.host_s", layer_host(Layer::kResidual, true), "s"},
        {"solvers.cycles", fig("solvers.cycles"), "count"},
        {"solvers.residual_factor", fig("solvers.residual_factor"), "ratio"},
        {"trace.overhead_s", host_median({Kind::kTraced}, wall) - single_wall, "s"},
    };
    if (!args.span_dir.empty() && first_traced != ops.end()) {
      write_spans(args.span_dir + "/spans-" + args.workload + "-" +
                      std::to_string(args.seed) + ".csv",
                  first_traced->second.spans);
    }
  }
  std::cerr << "ops: " << count(Kind::kSetup) << " set-up, "
            << count(Kind::kTimed) << " on " << timed_workers() << " workers, "
            << count(Kind::kSingle) << " single-worker, "
            << count(Kind::kTraced) << " traced; " << elapsed() << " s\n";
  std::cout << json_result(failed == 0, attempted, failed, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "kali_perfbench: " << e.what() << "\n";
    return 2;
  }
}
