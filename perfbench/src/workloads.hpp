// The benchmark's three workloads (README.md says why each was chosen).
//
// Each workload has one driver thread generating load, takes its inputs
// from a seed, and checks every output of every iteration.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "measure.hpp"

namespace perfbench {

/// One iteration: build the Env, run the timed phase (first spawn -> final
/// taskwait), read counters, check outputs, destroy the Env.
struct Iteration {
  long tasks = 0;   ///< tasks spawned
  long failed = 0;  ///< tasks whose output check failed
  double setup_s = 0;
  double teardown_s = 0;
  Phase timed;
  double vt_makespan_s = 0;  ///< virtual makespan (README.md defines it per workload)
  double vt_gflops = 0;      ///< cluster_matmul only
  /// Traced iterations only: per-layer counters and the driver's spans.
  Metrics layers;
  std::unique_ptr<SpanLog> spans;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Canonical rendering of every knob that shapes the run; the record
  /// carries its digest.
  virtual std::string config() const = 0;
  /// Builds and destroys one Env without running anything; returns the
  /// set-up wall seconds.
  virtual double setup_cycle() const = 0;
  /// `origin`: host time the run started, the zero of span timestamps.
  virtual Iteration run(bool traced, double origin) = 0;
};

/// Null for an unknown name.  `trace_dir` receives the runtime's own trace
/// files (cluster_matmul's traced iterations).
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& trace_dir);

}  // namespace perfbench
