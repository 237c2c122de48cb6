// perfbench — the repository benchmark.  Usually run through run.py, which
// builds this binary first:
//
//   perfbench --workload fine_tasks|cluster_matmul|cluster_protocol
//             --seed N --seconds S --trace 0|1 --out DIR [--source ID]
//
// Repeats the workload for S seconds and reports medians over the
// iterations, host times corrected for the host's pace.  --trace 0 times
// every iteration untraced and prints the end-to-end metrics; --trace 1
// cycles through untraced, traced and all-CPU iterations and prints the
// per-layer metrics, the tracing overhead and the share of the timed phase
// the driver's spans cover.  The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; the line before it is the
// full record (seed, host fingerprint, config digest, every spread), also
// written to DIR/results/.  Exits 1 if any output check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Iteration;
using perfbench::Metrics;
using perfbench::num;
using perfbench::quote;

constexpr int kMinIterations = 3;        // --trace 0
constexpr int kMinIterationsPerKind = 2;  // --trace 1, for each IterationKind
/// Extra Env build/destroy cycles before every iteration, so the set-up
/// median rests on more samples than the iterations alone give, spread over
/// the whole run.  Their tear-downs destroy an Env that never ran, so only
/// the iterations' tear-downs are reported.
constexpr int kSetupCycles = 6;

/// reference_s() on the baseline host when nothing else loads it
/// (README.md, "Host-pace correction").  Each one-CPU iteration's host times
/// are scaled by this over the mean of the references run just before and
/// just after it, so they read as seconds of the quiet baseline host.
constexpr double kReferenceSeconds = 0.028;

/// Every measured iteration runs on one host CPU.  The simulator's threads
/// advance virtual time by waking each other through futexes; spread over
/// several CPUs each wake-up is a cross-CPU interrupt whose cost follows the
/// host's load rather than the program, and on a shared host that moved the
/// same workload's CPU cost by 2x between minutes (README.md, "Why the
/// benchmark runs on one CPU").  Trace mode also runs iterations on every
/// CPU and reports them per layer, so that cost stays visible.
enum class IterationKind { kTimed, kTraced, kAllCpus };

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"vt_makespan_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// The host-time results lead the per-layer list: on a shared host they do
/// not repeat closely enough to bound (README.md, "Why host time is not
/// bounded").
constexpr MetricDef kPerLayer[] = {
    {"host_ktasks_per_s", "ktasks/s"},
    {"cpu_s_per_ktask", "s"},
    {"teardown_s", "s"},
    {"vt_gflops", "GFLOP/s"},
    {"failed_task_frac", "fraction"},
    {"trace.overhead", "x"},
    {"trace.span_coverage", "fraction"},
    {"host.all_cpus_ktasks_per_s", "ktasks/s"},
    {"host.all_cpus_cpu_s_per_ktask", "s"},
    {"ompss.spawn_us_p50", "us"},
    {"ompss.spawn_us_p99", "us"},
    {"ompss.drain_s", "s"},
    {"dep.arcs_per_task", "count"},
    {"dep.records_scanned_per_lookup", "count"},
    {"sched.steals_per_ktask", "count"},
    {"sched.lock_collisions_per_ktask", "count"},
    {"sched.spurious_wakes_per_ktask", "count"},
    {"vt.vol_csw_per_task", "count"},
    {"vt.sys_share", "fraction"},
    {"vt.os_threads", "count"},
    {"coh.hit_ratio", "fraction"},
    {"coh.h2d_bytes", "B"},
    {"coh.d2h_bytes", "B"},
    {"coh.evictions", "count"},
    {"coh.evict_retries", "count"},
    {"coh.records_scanned_per_lookup", "count"},
    {"gpu.kernels", "count"},
    {"gpu.kernel_busy_share", "fraction"},
    {"gpu.xfer_busy_share", "fraction"},
    {"gpu.unpinned_copy_ops", "count"},
    {"cluster.stos_share", "fraction"},
    {"cluster.stage_reqs", "count"},
    {"cluster.master_tx_bytes", "B"},
    {"cluster.master_commit_share", "fraction"},
    {"cluster.done_replays", "count"},
    {"cluster.exec_latency_us_mean", "us"},
    {"cluster.stage_latency_us_mean", "us"},
    {"net.wire_msgs_per_task", "count"},
    {"net.batch_subs_mean", "count"},
    {"net.tx_bytes", "B"},
    {"net.master_tx_share", "fraction"},
    {"net.tx_qlen_mean", "count"},
    {"res.false_suspicions", "count"},
    {"res.msg_retries", "count"},
    {"task.vt_wait_us_p50", "us"},
    {"task.vt_wait_us_p99", "us"},
    {"task.vt_body_us_mean", "us"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR [--source ID]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out = v;
    } else if (a == "--source") {
      o.source = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// Median of each key over the traced iterations.
Metrics median_layers(const std::vector<Metrics>& runs) {
  Metrics out;
  if (runs.empty()) return out;
  for (const auto& [k, v] : runs.front()) {
    std::vector<double> xs;
    for (const Metrics& m : runs) xs.push_back(m.count(k) != 0 ? m.at(k) : 0.0);
    out[k] = perfbench::spread(std::move(xs)).median;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const double origin = perfbench::wall_now();
  namespace fs = std::filesystem;
  const fs::path out(opt.out);
  fs::create_directories(out / "results");
  fs::create_directories(out / "spans");
  fs::create_directories(out / "traces");

  try {
    auto wl = perfbench::make_workload(opt.workload, opt.seed, (out / "traces").string());
    if (!wl) usage(("unknown workload " + opt.workload).c_str());
    // Threads inherit the mask of the thread that creates them, and the
    // main thread creates every Env, so its mask decides each iteration's.
    const perfbench::HostCpus cpus;

    std::vector<double> setup, teardown, ktasks_s, cpu_per_ktask, peak_rss, vt_makespan, vt_gflops;
    std::vector<double> reference;
    std::vector<double> traced_ktasks_s, all_ktasks_s, all_cpu_per_ktask;
    std::vector<Metrics> layers;
    std::unique_ptr<perfbench::SpanLog> last_spans;
    long attempted = 0, failed = 0;

    // --trace 0 runs only timed iterations; --trace 1 cycles through all
    // three kinds.  The last iteration may run past the deadline.
    const int kinds = opt.trace ? 3 : 1;
    const int min_iterations = opt.trace ? 3 * kMinIterationsPerKind : kMinIterations;
    const double deadline = perfbench::wall_now() + opt.seconds;
    for (int i = 0; i < min_iterations || perfbench::wall_now() < deadline; ++i) {
      const auto kind = static_cast<IterationKind>(i % kinds);
      if (kind == IterationKind::kAllCpus) {
        cpus.use_all();
      } else {
        cpus.use_one();
      }
      const bool one_cpu = kind != IterationKind::kAllCpus;
      const double ref_before = one_cpu ? perfbench::reference_s() : 0;
      std::vector<double> setup_cycles;
      if (kind == IterationKind::kTimed)
        for (int k = 0; k < kSetupCycles; ++k) setup_cycles.push_back(wl->setup_cycle());
      perfbench::reset_peak_rss();
      Iteration it = wl->run(kind == IterationKind::kTraced, origin);
      const double rss_mb = perfbench::peak_rss_mb();
      // All-CPU iterations stay uncorrected: the reference runs on one CPU.
      double quiet_scale = 1;  // host seconds -> seconds of the quiet baseline host
      if (one_cpu) {
        const double ref = 0.5 * (ref_before + perfbench::reference_s());
        reference.push_back(ref);
        quiet_scale = kReferenceSeconds / ref;
      }
      attempted += it.tasks;
      failed += it.failed;
      const double ktasks = static_cast<double>(it.tasks) / 1e3;
      const double per_s = ktasks / (it.timed.wall_s * quiet_scale);
      const double cpu_s = (it.timed.user_s + it.timed.sys_s) * quiet_scale / ktasks;
      static const char* const kKindName[] = {"", " (traced)", " (all CPUs)"};
      std::fprintf(stderr,
                   "iteration %d%s: setup %.4f s, timed %.3f s wall %.3f s user %.3f s sys, "
                   "teardown %.4f s, vt %.6g s, %ld failed, quiet-host scale %.3f\n",
                   i, kKindName[static_cast<int>(kind)], it.setup_s, it.timed.wall_s,
                   it.timed.user_s, it.timed.sys_s, it.teardown_s, it.vt_makespan_s, it.failed,
                   quiet_scale);
      vt_makespan.push_back(it.vt_makespan_s);
      vt_gflops.push_back(it.vt_gflops);
      switch (kind) {
        case IterationKind::kTimed:
          for (double t : setup_cycles) setup.push_back(t * quiet_scale);
          setup.push_back(it.setup_s * quiet_scale);
          teardown.push_back(it.teardown_s * quiet_scale);
          ktasks_s.push_back(per_s);
          cpu_per_ktask.push_back(cpu_s);
          peak_rss.push_back(rss_mb);
          break;
        case IterationKind::kTraced:
          traced_ktasks_s.push_back(per_s);
          layers.push_back(std::move(it.layers));
          last_spans = std::move(it.spans);
          break;
        case IterationKind::kAllCpus:
          all_ktasks_s.push_back(per_s);
          all_cpu_per_ktask.push_back(cpu_s);
          break;
      }
    }

    std::map<std::string, perfbench::Spread> spreads;
    spreads["setup_s"] = perfbench::spread(setup);
    spreads["teardown_s"] = perfbench::spread(teardown);
    spreads["host_ktasks_per_s"] = perfbench::spread(ktasks_s);
    spreads["cpu_s_per_ktask"] = perfbench::spread(cpu_per_ktask);
    spreads["peak_rss_mb"] = perfbench::spread(peak_rss);
    spreads["vt_makespan_s"] = perfbench::spread(vt_makespan);
    spreads["vt_gflops"] = perfbench::spread(vt_gflops);
    spreads["reference_s"] = perfbench::spread(reference);

    Metrics values;
    for (const auto& [k, s] : spreads) values[k] = s.median;
    values["failed_task_frac"] = static_cast<double>(failed) / static_cast<double>(attempted);
    if (opt.trace) {
      for (const auto& [k, v] : median_layers(layers)) values[k] = v;
      const double traced = perfbench::spread(traced_ktasks_s).median;
      values["trace.overhead"] = traced > 0 ? spreads["host_ktasks_per_s"].median / traced : 0;
      values["host.all_cpus_ktasks_per_s"] = perfbench::spread(all_ktasks_s).median;
      values["host.all_cpus_cpu_s_per_ktask"] = perfbench::spread(all_cpu_per_ktask).median;
    }

    // Human-readable report.
    std::printf("perfbench %s seed=%llu trace=%d: %zu timed + %zu traced + %zu all-CPU "
                "iterations, %ld tasks, %ld failed\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, ktasks_s.size(), layers.size(), all_ktasks_s.size(),
                attempted, failed);
    std::printf("  %-34s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n",
                "unit");
    for (const auto& [k, s] : spreads) {
      const char* unit = "";
      for (const auto& d : kEndToEnd)
        if (k == d.name) unit = d.unit;
      for (const auto& d : kPerLayer)
        if (k == d.name) unit = d.unit;
      std::printf("  %-34s %14.6g %14.6g %14.6g %4zu  %s\n", k.c_str(), s.median, s.q1, s.q3,
                  s.n, unit);
    }
    if (opt.trace) {
      std::printf("  per-layer (median of traced iterations):\n");
      for (const auto& d : kPerLayer)
        std::printf("  %-34s %14.6g  %s\n", d.name, values.at(d.name), d.unit);
    }

    // Full record: reproducibility fields and every spread.
    const std::string config = "host_cpus=1;" + wl->config();
    std::string rec = "{\"workload\":" + quote(opt.workload) +
                      ",\"seed\":" + std::to_string(opt.seed) +
                      ",\"trace\":" + (opt.trace ? "1" : "0") +
                      ",\"seconds\":" + num(opt.seconds) + ",\"config\":" + quote(config) +
                      ",\"config_digest\":" + quote(perfbench::digest(config)) +
                      ",\"host\":{\"cpu\":" + quote(cpu_model()) +
                      ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                      ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
                      ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
                      ",\"source\":" + quote(opt.source) + "},\"attempted\":" +
                      std::to_string(attempted) + ",\"failed\":" + std::to_string(failed) +
                      ",\"spreads\":{";
    bool first = true;
    for (const auto& [k, s] : spreads) {
      rec += (first ? "" : ",") + quote(k) + ":{\"median\":" + num(s.median) +
             ",\"q1\":" + num(s.q1) + ",\"q3\":" + num(s.q3) + ",\"n\":" + std::to_string(s.n) +
             "}";
      first = false;
    }
    rec += "},\"values\":{";
    first = true;
    for (const auto& [k, v] : values) {
      rec += (first ? "" : ",") + quote(k) + ":" + num(v);
      first = false;
    }
    rec += "}}";
    const std::string stem =
        opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0");
    std::ofstream(out / "results" / (stem + ".json")) << rec << "\n";
    if (last_spans) last_spans->write_tsv((out / "spans" / (opt.workload + ".tsv")).string());
    std::printf("perfbench-record %s\n", rec.c_str());

    // The result line: end-to-end metrics untraced, per-layer traced.
    std::string line = "{\"correct\":" + std::string(failed == 0 ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
    first = true;
    auto emit = [&](const MetricDef& d) {
      line += (first ? "" : ",") + quote(d.name) + ":{\"value\":" + num(values.at(d.name)) +
              ",\"unit\":" + quote(d.unit) + "}";
      first = false;
    };
    if (opt.trace) {
      for (const auto& d : kPerLayer) emit(d);
    } else {
      for (const auto& d : kEndToEnd) emit(d);
    }
    std::printf("%s}}\n", line.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
