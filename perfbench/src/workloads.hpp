// The benchmark's three workloads.  Each one draws its instance from the
// seed on the host (shape and initial field), runs as an SPMD program on a
// fresh Machine per op, and checks its own outputs against a reference
// computed outside the timed phase.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "machine/config.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual int nprocs() const = 0;
  [[nodiscard]] virtual kali::LinkContention contention() const = 0;
  /// Elements of the global output field OpProbe::field must hold.
  [[nodiscard]] virtual std::size_t field_size() const = 0;

  /// One op: set-up, probe.begin_timed, the timed phase, probe.end_timed,
  /// then the rank's share of the output written into the probe.
  virtual void program(kali::Context& ctx, OpProbe& probe,
                       Tracer* tracer) const = 0;

  /// Empty when the op's outputs are correct, else the reason they are not.
  [[nodiscard]] virtual std::string verify(const OpProbe& probe) const = 0;

  /// The instance the seed drew, for the log.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// The names make_workload accepts.
const std::vector<std::string>& workload_names();

/// Builds the named workload's instance for `seed`, including its
/// reference result.  Throws kali::Error on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
