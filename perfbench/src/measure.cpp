#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "nanos/verify/verify.hpp"
#include "ompss/ompss.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {seconds(ru.ru_utime), seconds(ru.ru_stime), ru.ru_nvcsw};
}

HostCpus::HostCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) allowed_.push_back(cpu);
  }
  if (allowed_.empty()) throw std::runtime_error("no CPU allowed");
}

void HostCpus::apply(bool all) const {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu : allowed_) {
    CPU_SET(cpu, &mask);
    if (!all) break;
  }
  if (sched_setaffinity(0, sizeof(mask), &mask) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

namespace {

/// Integer value of one /proc/self/status field (e.g. "Threads:"), 0 if absent.
long status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) return std::atol(line.c_str() + len);
  }
  return 0;
}

}  // namespace

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!(out << "5" << std::flush)) throw std::runtime_error("cannot reset peak RSS");
}

double peak_rss_mb() { return static_cast<double>(status_field("VmHWM:")) / 1024.0; }

int os_threads() { return static_cast<int>(status_field("Threads:")); }

double reference_s() {
  constexpr int kThreads = 4;
  constexpr int kHops = 6000;
  constexpr int kTouches = 64;
  // Allocated per call and freed before the next peak-RSS window opens.
  std::vector<std::uint64_t> buffer(std::size_t{1} << 20);
  std::mutex mu;
  std::condition_variable turn[kThreads];
  int holder = 0, hops = 0;
  bool done = false;
  auto pass = [&](int me) {
    std::uint64_t x = 2 * static_cast<std::uint64_t>(me) + 1;
    std::unique_lock lock(mu);
    for (;;) {
      turn[me].wait(lock, [&] { return holder == me || done; });
      if (done) return;
      for (int k = 0; k < kTouches; ++k) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        ++buffer[(x >> 20) & (buffer.size() - 1)];
      }
      if (++hops == kHops) {
        done = true;
        for (auto& t : turn) t.notify_all();
        return;
      }
      holder = (me + 1) % kThreads;
      turn[holder].notify_one();
    }
  };
  const double t0 = wall_now();
  std::vector<std::thread> threads;
  for (int i = 1; i < kThreads; ++i) threads.emplace_back(pass, i);
  pass(0);
  for (auto& t : threads) t.join();
  return wall_now() - t0;
}

Phase PhaseTimer::stop() const {
  const double wall1 = wall_now();
  const Usage use1 = usage_now();
  return {wall1 - wall0_, use1.user_s - use0_.user_s, use1.sys_s - use0_.sys_s,
          use1.vol_csw - use0_.vol_csw};
}

Spread spread(std::vector<double> v) {
  Spread s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method="exclusive"): position j*(n+1)/4, 1-based.
  auto at = [&](int j) {
    const double m = static_cast<double>(n) + 1.0;
    const double pos = static_cast<double>(j) * m / 4.0;
    const auto lo = static_cast<std::size_t>(std::clamp(std::floor(pos), 1.0,
                                                        static_cast<double>(n - 1)));
    const double frac = pos - static_cast<double>(lo);
    return v[lo - 1] + (v[lo] - v[lo - 1]) * frac;
  };
  s.q1 = at(1);
  s.q3 = at(3);
  return s;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double SpanLog::driver_busy_s() const {
  double busy = 0;
  for (const Span& s : spawn_) busy += s.wall1 - s.wall0;
  return busy + taskwait_s();
}

double SpanLog::taskwait_s() const {
  double t = 0;
  for (const Named& d : driver_) {
    if (d.kind == "taskwait") t += d.span.wall1 - d.span.wall0;
  }
  return t;
}

std::vector<double> SpanLog::spawn_us() const {
  std::vector<double> v;
  v.reserve(spawn_.size());
  for (const Span& s : spawn_) v.push_back((s.wall1 - s.wall0) * 1e6);
  return v;
}

std::vector<double> SpanLog::vt_wait_us() const {
  std::vector<double> v;
  v.reserve(body_.size());
  for (std::size_t i = 0; i < body_.size(); ++i) v.push_back((body_[i].vt0 - spawn_[i].vt0) * 1e6);
  return v;
}

std::vector<double> SpanLog::vt_body_us() const {
  std::vector<double> v;
  v.reserve(body_.size());
  for (const Span& s : body_) v.push_back((s.vt1 - s.vt0) * 1e6);
  return v;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind\ttask\tparent\twall_us\twall_dur_us\tvt_us\tvt_dur_us\n");
  auto row = [f](const char* kind, long task, const char* parent, const Span& s) {
    std::fprintf(f, "%s\t%ld\t%s\t%.3f\t%.3f\t%.3f\t%.3f\n", kind, task, parent, s.wall0 * 1e6,
                 (s.wall1 - s.wall0) * 1e6, s.vt0 * 1e6, (s.vt1 - s.vt0) * 1e6);
  };
  for (const Named& d : driver_) row(d.kind.c_str(), -1, "-", d.span);
  for (std::size_t i = 0; i < spawn_.size(); ++i) row("spawn", static_cast<long>(i), "-", spawn_[i]);
  for (std::size_t i = 0; i < body_.size(); ++i) row("body", static_cast<long>(i), "spawn", body_[i]);
  return std::fclose(f) == 0;
}

namespace {

/// Sums one stat over a set of Stats objects.
double total(const std::vector<common::Stats*>& from, const std::string& name) {
  double s = 0;
  for (const common::Stats* st : from) s += st->sum(name);
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Share of [0, horizon] covered by the union of the given intervals.
double covered(std::vector<std::pair<double, double>> iv, double horizon) {
  if (horizon <= 0 || iv.empty()) return 0;
  std::sort(iv.begin(), iv.end());
  double busy = 0, lo = iv[0].first, hi = iv[0].second;
  for (const auto& [b, e] : iv) {
    if (b > hi) {
      busy += hi - lo;
      lo = b;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  busy += hi - lo;
  return busy / horizon;
}

}  // namespace

Metrics read_layers(ompss::Env& env, double tasks) {
  Metrics m;
  nanos::ClusterRuntime* cluster = env.cluster();
  const int nodes = env.node_count();

  // dep / sched / coherence counters live in each node runtime's Stats; the
  // cluster's master dependency domain and protocol counters in the
  // cluster's own.
  std::vector<common::Stats*> rt;
  for (int n = 0; n < nodes; ++n) rt.push_back(&env.node_runtime(n).stats());
  if (cluster != nullptr) rt.push_back(&cluster->stats());

  m["dep.arcs_per_task"] = ratio(total(rt, "dep.arcs"), tasks);
  m["dep.records_scanned_per_lookup"] =
      ratio(total(rt, "dep.records_scanned"), total(rt, "dep.lookups"));

  const double ktasks = tasks / 1e3;
  m["sched.steals_per_ktask"] = ratio(total(rt, "sched.steals"), ktasks);
  m["sched.lock_collisions_per_ktask"] = ratio(total(rt, "sched.lock_collisions"), ktasks);
  m["sched.spurious_wakes_per_ktask"] = ratio(total(rt, "sched.spurious_wakes"), ktasks);

  const double hits = total(rt, "coh.hits");
  m["coh.hit_ratio"] = ratio(hits, hits + total(rt, "coh.misses"));
  m["coh.h2d_bytes"] = total(rt, "coh.h2d_bytes");
  m["coh.d2h_bytes"] = total(rt, "coh.d2h_bytes");
  m["coh.evictions"] = total(rt, "coh.evictions");
  m["coh.evict_retries"] = total(rt, "coh.evict_retries");
  m["coh.records_scanned_per_lookup"] =
      ratio(total(rt, "coh.dir_records_scanned"), total(rt, "coh.dir_lookups"));

  // simcuda: device counters, and busy shares from the runtime's own trace
  // (present only when the workload enabled the `trace` config).
  std::vector<common::Stats*> gpu;
  int gpus = 0;
  double horizon = env.clock().now();
  double kernel_share = 0, xfer_share = 0;
  for (int n = 0; n < nodes; ++n) {
    nanos::Runtime& r = env.node_runtime(n);
    for (int g = 0; g < r.gpu_count(); ++g) gpu.push_back(&r.gpu_platform().device(g).stats());
    gpus += r.gpu_count();
    if (r.trace() == nullptr) continue;
    for (int g = 0; g < r.gpu_count(); ++g) {
      const std::string dev = "gpu" + std::to_string(g);
      std::vector<std::pair<double, double>> k, x;
      for (const auto& e : r.trace()->events()) {
        if (e.resource == dev) k.emplace_back(e.begin, e.end);
        if (e.resource == dev + ".xfer") x.emplace_back(e.begin, e.end);
      }
      kernel_share += covered(std::move(k), horizon);
      xfer_share += covered(std::move(x), horizon);
    }
  }
  m["gpu.kernels"] = total(gpu, "kernels");
  m["gpu.kernel_busy_share"] = ratio(kernel_share, gpus);
  m["gpu.xfer_busy_share"] = ratio(xfer_share, gpus);
  m["gpu.unpinned_copy_ops"] = total(gpu, "h2d_unpinned_ops") + total(gpu, "d2h_unpinned_ops");

  // nanos.cluster, simnet and resilience: zero on a single node.
  for (const char* k :
       {"cluster.stos_share", "cluster.stage_reqs", "cluster.master_tx_bytes",
        "cluster.master_commit_share", "cluster.done_replays", "cluster.exec_latency_us_mean",
        "cluster.stage_latency_us_mean", "net.wire_msgs_per_task", "net.batch_subs_mean",
        "net.tx_bytes", "net.master_tx_share", "net.tx_qlen_mean", "res.false_suspicions",
        "res.msg_retries"})
    m[k] = 0;
  if (cluster == nullptr) return m;

  const common::Stats& cs = cluster->stats();
  m["cluster.stos_share"] = ratio(cs.sum("cluster.stos_transfers"), cs.sum("cluster.stagings"));
  m["cluster.stage_reqs"] = cs.sum("cluster.stage_reqs");
  m["cluster.master_tx_bytes"] = cs.sum("cluster.master_tx_bytes");
  double homed = 0;
  for (int n = 0; n < nodes; ++n) homed += cs.sum("cluster.dir_ops_homed.n" + std::to_string(n));
  m["cluster.master_commit_share"] = ratio(cs.sum("cluster.dir_ops_homed.n0"), homed);
  m["cluster.done_replays"] = cs.sum("cluster.done_replays");
  m["cluster.exec_latency_us_mean"] = cs.get("cluster.exec_latency").mean() * 1e6;
  m["cluster.stage_latency_us_mean"] = cs.get("cluster.stage_latency").mean() * 1e6;

  // Wire messages: plain shorts, puts, multi-sub batches, and coalesced
  // sends flushed alone (which travel as plain shorts without counting as
  // one).
  std::vector<common::Stats*> ep;
  for (int n = 0; n < nodes; ++n) ep.push_back(&cluster->network().endpoint(n).stats());
  const double batches = total(ep, "am_batch");
  const double subs = total(ep, "am_batch_subs");
  const double wire = total(ep, "am_short") + total(ep, "put_ops") + batches +
                      (total(ep, "am_coalesced") - subs);
  m["net.wire_msgs_per_task"] = ratio(wire, tasks);
  m["net.batch_subs_mean"] = ratio(subs, batches);
  const double tx = total(ep, "tx_bytes");
  m["net.tx_bytes"] = tx;
  m["net.master_tx_share"] = ratio(ep[0]->sum("tx_bytes"), tx);
  double qlen_sum = 0, qlen_n = 0;
  for (const common::Stats* e : ep) {
    const common::StatValue q = e->get("tx_bulk_qlen");
    qlen_sum += q.sum;
    qlen_n += static_cast<double>(q.count);
  }
  m["net.tx_qlen_mean"] = ratio(qlen_sum, qlen_n);

  // No fault is injected, so every detected failure is a false suspicion.
  m["res.false_suspicions"] = cs.sum("res.failures_detected");
  m["res.msg_retries"] = cs.sum("res.msg_retries");
  return m;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string digest(const std::string& canonical) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(nanos::verify::fnv1a(canonical)));
  return buf;
}

}  // namespace perfbench
