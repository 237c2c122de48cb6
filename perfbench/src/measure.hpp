// Measurement primitives of the benchmark: host clocks and rusage, order
// statistics, in-memory spans, per-layer counter readout and JSON output.
//
// Everything here observes the program from outside: it times the
// benchmark's own calls into the public API and reads each layer's public
// stats() after the final taskwait.  Nothing is instrumented inside src/.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ompss {
class Env;
}

namespace perfbench {

/// Host monotonic time, seconds.
double wall_now();

/// Process-wide CPU and context-switch counters (getrusage, all threads).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long vol_csw = 0;
};
Usage usage_now();

/// Switches the calling thread, and so every thread it creates afterwards,
/// between one host CPU (the lowest it was allowed at construction) and all
/// the CPUs it was allowed.  Throws on failure.
class HostCpus {
public:
  HostCpus();
  void use_one() const { apply(false); }
  void use_all() const { apply(true); }

private:
  void apply(bool all) const;
  std::vector<int> allowed_;
};

/// Host pace reference, seconds: 4 threads confined to the caller's CPUs pass
/// a token round a ring 6000 times, and each holder touches 64 random words
/// of an 8 MiB buffer before passing it on.  That is the mix that dominates
/// the workloads' host cost (futex sleep/wake hand-offs and cache misses)
/// without any of the program's code, so a change to the program leaves it
/// alone while load from other tenants of a shared host slows both.
double reference_s();

/// Starts a new peak-resident-set window: resets the kernel's high-water
/// mark to the current resident set (/proc/self/clear_refs).  Throws on
/// failure.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss(), MiB (VmHWM).
double peak_rss_mb();
/// OS threads alive in the process right now (/proc/self/status).
int os_threads();

/// Host cost of one phase: wall time and the process's CPU over it.
struct Phase {
  double wall_s = 0;
  double user_s = 0;
  double sys_s = 0;
  long vol_csw = 0;
};

class PhaseTimer {
public:
  PhaseTimer() : wall0_(wall_now()), use0_(usage_now()) {}
  Phase stop() const;

private:
  double wall0_;
  Usage use0_;
};

/// Median and quartiles as Python's statistics.quantiles(v, n=4) gives them
/// (the "exclusive" method), plus the sample count.
struct Spread {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
};
Spread spread(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty vector.
double percentile(std::vector<double> v, double q);

/// One span: host wall and virtual times of a call the benchmark made.
/// Body spans carry the task id of the spawn span that caused them.
struct Span {
  double wall0 = 0, wall1 = 0;  ///< host seconds since the run started
  double vt0 = 0, vt1 = 0;      ///< virtual seconds
};

/// In-memory spans of one workload iteration; written out when the run ends.
/// Spawn and body spans live in per-task slots (a body writes only its own
/// slot, so workers never share one); env/taskwait spans are appended by the
/// driver thread alone.
class SpanLog {
public:
  SpanLog(double origin, std::size_t tasks) : origin_(origin), spawn_(tasks), body_(tasks) {}

  double now() const { return wall_now() - origin_; }
  Span& spawn(std::size_t task) { return spawn_[task]; }
  Span& body(std::size_t task) { return body_[task]; }
  void add(const std::string& kind, const Span& s) { driver_.push_back({kind, s}); }

  /// Sum of the driver's spawn and taskwait span durations.
  double driver_busy_s() const;
  std::vector<double> spawn_us() const;
  /// Virtual wait (spawn -> body start) and body time per task, µs.
  std::vector<double> vt_wait_us() const;
  std::vector<double> vt_body_us() const;
  double taskwait_s() const;

  /// Tab-separated: kind, task, parent, wall start/duration (µs), virtual
  /// start/duration (µs).  A body span's parent is its task's spawn span.
  bool write_tsv(const std::string& path) const;

private:
  struct Named {
    std::string kind;
    Span span;
  };
  double origin_;
  std::vector<Span> spawn_;
  std::vector<Span> body_;
  std::vector<Named> driver_;
};

using Metrics = std::map<std::string, double>;

/// Per-layer counters of `env` after its final taskwait (see README.md for
/// the definitions).  `tasks` is the number of tasks the workload spawned.
Metrics read_layers(ompss::Env& env, double tasks);

/// Shortest round-trip rendering of a double (JSON number).
std::string num(double v);
/// JSON string literal.
std::string quote(const std::string& s);

/// FNV-1a digest of a canonical config rendering, as hex.
std::string digest(const std::string& canonical);

}  // namespace perfbench
