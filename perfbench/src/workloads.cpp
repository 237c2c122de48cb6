#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>
#include <vector>

#include "apps/matmul/matmul.hpp"
#include "apps/platform.hpp"
#include "ompss/ompss.hpp"

namespace perfbench {

namespace {

/// splitmix64: the benchmark's only source of randomness, so inputs depend
/// on the seed alone (not on the standard library's distributions).
class Rng {
public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
  std::uint64_t s_;
};

/// Records one driver call as a span when tracing.
class DriverSpan {
public:
  DriverSpan(SpanLog* log, const char* kind, vt::Clock& clock)
      : log_(log), kind_(kind), clock_(clock) {
    if (log_ != nullptr) {
      s_.vt0 = clock_.now();
      s_.wall0 = log_->now();
    }
  }
  ~DriverSpan() {
    if (log_ == nullptr) return;
    s_.wall1 = log_->now();
    s_.vt1 = clock_.now();
    log_->add(kind_, s_);
  }
  DriverSpan(const DriverSpan&) = delete;
  DriverSpan& operator=(const DriverSpan&) = delete;

private:
  SpanLog* log_;
  const char* kind_;
  vt::Clock& clock_;
  Span s_;
};

/// Spawns `b` as task `id`, recording the spawn span when tracing.  The
/// virtual timestamp is read outside the wall-clock span.
void spawn(ompss::TaskBuilder& b, nanos::TaskFn fn, SpanLog* spans, std::size_t id,
           vt::Clock& clock) {
  if (spans == nullptr) {
    b.run(std::move(fn));
    return;
  }
  Span& s = spans->spawn(id);
  s.vt0 = s.vt1 = clock.now();
  s.wall0 = spans->now();
  b.run(std::move(fn));
  s.wall1 = spans->now();
}

/// Body-wrapper span: opened at body entry, closed at exit.  Each task
/// writes only its own slot.
class BodySpan {
public:
  BodySpan(SpanLog* log, std::size_t id, vt::Clock& clock)
      : s_(log != nullptr ? &log->body(id) : nullptr), log_(log), clock_(clock) {
    if (s_ != nullptr) {
      s_->vt0 = clock_.now();
      s_->wall0 = log_->now();
    }
  }
  ~BodySpan() {
    if (s_ == nullptr) return;
    s_->wall1 = log_->now();
    s_->vt1 = clock_.now();
  }
  BodySpan(const BodySpan&) = delete;
  BodySpan& operator=(const BodySpan&) = delete;

private:
  Span* s_;
  SpanLog* log_;
  vt::Clock& clock_;
};

/// Hands memory freed by a destroyed Env back to the OS.  Without it, the
/// next iteration's driver thread may allocate from a different malloc arena
/// while the old one keeps its pages, and peak RSS would depend on arena
/// assignment rather than on the program.
void release_free_memory() { malloc_trim(0); }

/// Env lifecycle shared by the workloads: set-up and tear-down are timed
/// around the Env constructor and destructor, the timed phase is the
/// workload's drive(), and a traced iteration reads every layer's counters
/// between the final taskwait and the tear-down.
template <class Config>
class EnvWorkload : public Workload {
public:
  double setup_cycle() const override {
    const double t0 = wall_now();
    auto env = std::make_unique<ompss::Env>(env_config(false));
    const double t = wall_now() - t0;
    env.reset();
    release_free_memory();
    return t;
  }

  Iteration run(bool traced, double origin) override {
    Iteration it;
    it.tasks = task_count();
    if (traced) it.spans = std::make_unique<SpanLog>(origin, owned_tasks());
    SpanLog* spans = it.spans.get();

    const double t0 = wall_now();
    auto env = std::make_unique<ompss::Env>(env_config(traced));
    const double t1 = wall_now();
    it.setup_s = t1 - t0;
    if (spans != nullptr) spans->add("env_setup", {t0 - origin, t1 - origin, 0, 0});

    drive(*env, it, spans);

    if (traced) {
      it.layers.merge(read_layers(*env, static_cast<double>(it.tasks)));
      add_span_layers(it);
    }
    const double t2 = wall_now();
    env.reset();
    const double t3 = wall_now();
    it.teardown_s = t3 - t2;
    if (spans != nullptr) spans->add("env_teardown", {t2 - origin, t3 - origin, 0, 0});
    release_free_memory();
    return it;
  }

protected:
  virtual Config env_config(bool traced) const = 0;
  virtual long task_count() const = 0;
  /// Tasks whose spawn call and body the benchmark owns (0 when the app
  /// spawns them).
  virtual long owned_tasks() const { return task_count(); }
  /// Runs the timed phase and checks its outputs: fills `it.timed`,
  /// `it.failed` and the virtual-time results; sets `vt.os_threads` when
  /// traced.
  virtual void drive(ompss::Env& env, Iteration& it, SpanLog* spans) = 0;

private:
  static void add_span_layers(Iteration& it) {
    const SpanLog& s = *it.spans;
    Metrics& m = it.layers;
    const std::vector<double> spawn_us = s.spawn_us();
    m["ompss.spawn_us_p50"] = percentile(spawn_us, 0.50);
    m["ompss.spawn_us_p99"] = percentile(spawn_us, 0.99);
    m["ompss.drain_s"] = s.taskwait_s();
    const std::vector<double> wait = s.vt_wait_us();
    m["task.vt_wait_us_p50"] = percentile(wait, 0.50);
    m["task.vt_wait_us_p99"] = percentile(wait, 0.99);
    const std::vector<double> body = s.vt_body_us();
    double body_sum = 0;
    for (double b : body) body_sum += b;
    m["task.vt_body_us_mean"] = body.empty() ? 0 : body_sum / static_cast<double>(body.size());
    const Phase& p = it.timed;
    m["vt.vol_csw_per_task"] = static_cast<double>(p.vol_csw) / static_cast<double>(it.tasks);
    m["vt.sys_share"] = p.user_s + p.sys_s > 0 ? p.sys_s / (p.user_s + p.sys_s) : 0;
    m["trace.span_coverage"] = p.wall_s > 0 ? s.driver_busy_s() / p.wall_s : 0;
  }
};

// ---------------------------------------------------------------------------
// fine_tasks: one node, dep scheduler, 3 SMP workers (driver + workers = the
// 4 cores of the baseline host, though measured iterations share one CPU;
// see IterationKind in main.cpp).  A seeded interleaving of a W x W wavefront (in, in,
// out) and a fan of independent `out` tasks on disjoint 64 B regions, all
// dependence-only with empty bodies: only runtime bookkeeping costs
// anything.

class FineTasks final : public EnvWorkload<nanos::RuntimeConfig> {
public:
  static constexpr long kW = 300;        // 90,000 wavefront cells
  static constexpr long kFan = 110'000;  // independent tasks
  static constexpr long kTasks = kW * kW + kFan;
  static constexpr int kWorkers = 3;

  explicit FineTasks(std::uint64_t seed)
      : cell_(kTasks), pred_(2 * kTasks, -1), grid_(kW * kW), fan_(kFan * 64) {
    // Uniformly random interleaving of the two streams; each keeps its own
    // order, so every wavefront cell is spawned after its predecessors.
    Rng rng(seed);
    long wf_left = kW * kW, fan_left = kFan;
    std::vector<std::int32_t> task_of_cell(kW * kW);
    for (long id = 0; id < kTasks; ++id) {
      const bool wf = rng.below(static_cast<std::uint64_t>(wf_left + fan_left)) <
                      static_cast<std::uint64_t>(wf_left);
      if (wf) {
        const long c = kW * kW - wf_left--;
        cell_[id] = static_cast<std::int32_t>(c);
        task_of_cell[c] = static_cast<std::int32_t>(id);
        if (c >= kW) pred_[2 * id] = task_of_cell[c - kW];
        if (c % kW != 0) pred_[2 * id + 1] = task_of_cell[c - 1];
      } else {
        cell_[id] = static_cast<std::int32_t>(-1 - (kFan - fan_left--));
      }
    }
  }

  std::string config() const override {
    return "workload=fine_tasks;nodes=1;gpus=0;scheduler=dep;smp_workers=" +
           std::to_string(kWorkers) + ";wavefront=" + std::to_string(kW) + "x" +
           std::to_string(kW) + ";fan=" + std::to_string(kFan) +
           ";accesses=dep_only;body=empty;final_taskwait=noflush";
  }

protected:
  nanos::RuntimeConfig env_config(bool) const override {
    nanos::RuntimeConfig cfg;
    cfg.scheduler = "dep";
    cfg.smp_workers = kWorkers;
    return cfg;
  }
  long task_count() const override { return kTasks; }

  void drive(ompss::Env& env, Iteration& it, SpanLog* spans) override {
    struct State {
      std::vector<std::atomic<std::uint32_t>> runs;
      std::atomic<long> order_violations{0};
      const std::int32_t* pred;
      SpanLog* spans;
      vt::Clock* clock;
    } st{std::vector<std::atomic<std::uint32_t>>(kTasks), {}, pred_.data(), spans, &env.clock()};
    State* s = &st;

    env.run([&] {
      PhaseTimer timer;
      for (long id = 0; id < kTasks; ++id) {
        auto b = ompss::task();
        const std::int32_t c = cell_[id];
        if (c >= 0) {
          if (c >= kW) b.dep(&grid_[c - kW], sizeof(double), nanos::AccessMode::kIn);
          if (c % kW != 0) b.dep(&grid_[c - 1], sizeof(double), nanos::AccessMode::kIn);
          b.dep(&grid_[c], sizeof(double), nanos::AccessMode::kOut);
        } else {
          b.dep(&fan_[static_cast<std::size_t>(-1 - c) * 64], 64, nanos::AccessMode::kOut);
        }
        spawn(b,
              [s, id](ompss::Ctx&) {
                BodySpan span(s->spans, static_cast<std::size_t>(id), *s->clock);
                for (int k = 0; k < 2; ++k) {
                  const std::int32_t p = s->pred[2 * id + k];
                  if (p >= 0 && s->runs[p].load(std::memory_order_acquire) == 0)
                    s->order_violations.fetch_add(1, std::memory_order_relaxed);
                }
                s->runs[id].fetch_add(1, std::memory_order_release);
              },
              spans, static_cast<std::size_t>(id), env.clock());
      }
      if (spans != nullptr) it.layers["vt.os_threads"] = os_threads();
      {
        DriverSpan span(spans, "taskwait", env.clock());
        ompss::taskwait_noflush();
      }
      it.timed = timer.stop();
      it.vt_makespan_s = env.clock().now();
    });

    long bad = st.order_violations.load();
    for (const auto& r : st.runs) bad += r.load() != 1 ? 1 : 0;
    it.failed = std::min(bad, kTasks);
  }

private:
  std::vector<std::int32_t> cell_;  // task id -> wavefront cell, or -1 - fan index
  std::vector<std::int32_t> pred_;  // task id -> wavefront predecessor task ids
  std::vector<double> grid_;
  std::vector<char> fan_;
};

// ---------------------------------------------------------------------------
// cluster_matmul: the paper's Fig. 9 configuration through
// apps::matmul::run_ompss — 8 GTX480 nodes on QDR IB, StoS, presend 2,
// write-back + overlap + prefetch, SMP initialization, 12 x 12 tiles of a
// logical N = 12288 matrix.  The benchmark owns no spawn call or body here.

class ClusterMatmul final : public EnvWorkload<nanos::ClusterConfig> {
public:
  static constexpr int kNodes = 8;

  ClusterMatmul(std::uint64_t seed, std::string trace_dir) : trace_dir_(std::move(trace_dir)) {
    p_.nb = 12;
    p_.bs_phys = 48;
    p_.bs_logical = 12288.0 / p_.nb;
    p_.seed = static_cast<unsigned>(seed % 1'000'000'007ULL);
    reference_ = apps::matmul::run_serial(p_).checksum;
  }

  std::string config() const override {
    return "workload=cluster_matmul;platform=gpu_cluster;nodes=" + std::to_string(kNodes) +
           ";stos=1;presend=2;cache=wb;overlap=1;prefetch=1;init=smp;nb=" +
           std::to_string(p_.nb) + ";bs_phys=" + std::to_string(p_.bs_phys) +
           ";logical_n=12288;final_taskwait=flush";
  }

protected:
  nanos::ClusterConfig env_config(bool traced) const override {
    nanos::ClusterConfig cfg = apps::gpu_cluster(kNodes, p_.byte_scale());
    cfg.slave_to_slave = true;
    cfg.presend = 2;
    cfg.node.cache_policy = "wb";
    cfg.node.overlap = true;
    cfg.node.prefetch = true;
    // The runtime's own trace supplies the GPU kernel/transfer intervals.
    if (traced) cfg.node.trace_path = trace_dir_ + "/cluster_matmul.trace.json";
    return cfg;
  }
  long task_count() const override {
    const long nb = p_.nb;
    return nb * nb * nb + 3 * nb * nb;  // gemms + init of A, B and zeroing of C
  }
  long owned_tasks() const override { return 0; }

  void drive(ompss::Env& env, Iteration& it, SpanLog* spans) override {
    PhaseTimer timer;
    apps::matmul::Result r;
    {
      DriverSpan span(spans, "run_ompss", env.clock());
      r = apps::matmul::run_ompss(env, p_, apps::matmul::InitMode::kSmp);
    }
    it.timed = timer.stop();
    if (spans != nullptr) it.layers["vt.os_threads"] = os_threads();
    it.vt_makespan_s = r.seconds;
    it.vt_gflops = r.gflops;
    // Tiles accumulate in spawn order on every path, so the checksum matches
    // the serial reference up to float summation noise.
    const double tol = 1e-6 * std::max(1.0, std::fabs(reference_));
    if (!(std::fabs(r.checksum - reference_) <= tol)) it.failed = it.tasks;
  }

private:
  std::string trace_dir_;
  apps::matmul::Params p_;
  double reference_ = 0;
};

// ---------------------------------------------------------------------------
// cluster_protocol: 64 SMP-only nodes, 2 workers each, decentralized
// protocol (directory sharding, StoS, 100 µs AM coalescing, default
// heartbeat).  Phase 1 is over02's weak-scaling leg: 16 producers per node,
// 2 ms bodies, each writing a private 64 B region.  Phase 2: one consumer per
// producer, reading two peer regions (a seeded pairing) into a private sink.

class ClusterProtocol final : public EnvWorkload<nanos::ClusterConfig> {
public:
  static constexpr int kNodes = 64;
  static constexpr long kPerNode = 16;
  static constexpr long kProducers = kNodes * kPerNode;
  static constexpr std::size_t kFloats = 16;  // 64 B regions
  static constexpr double kBodySeconds = 2e-3;

  explicit ClusterProtocol(std::uint64_t seed) : value_(kProducers), pair_(kProducers) {
    Rng rng(seed);
    for (float& v : value_) v = static_cast<float>(1 + rng.below(1000));
    for (long i = 0; i < kProducers; ++i) pair_[i] = static_cast<std::int32_t>(i);
    for (long i = kProducers - 1; i > 0; --i)
      std::swap(pair_[i], pair_[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }

  std::string config() const override {
    return "workload=cluster_protocol;nodes=" + std::to_string(kNodes) +
           ";gpus=0;smp_workers=2;scheduler=dep;node_scheduler=bf;rr_chunk=" +
           std::to_string(kPerNode) + ";presend=" + std::to_string(kPerNode) +
           ";dir_sharding=1;stos=1;coalesce_window=100e-6;heartbeat=default;producers=" +
           std::to_string(kProducers) + ";consumers=" + std::to_string(kProducers) +
           ";region_bytes=64;body_s=2e-3;final_taskwait=flush";
  }

protected:
  nanos::ClusterConfig env_config(bool) const override {
    nanos::ClusterConfig cfg;
    cfg.nodes = kNodes;
    cfg.node_scheduler = "bf";
    cfg.rr_chunk = static_cast<int>(kPerNode);
    cfg.segment_bytes = 32u << 20;
    cfg.presend = static_cast<int>(kPerNode);
    cfg.node.smp_workers = 2;
    cfg.node.scheduler = "dep";
    cfg.node.cache_policy = "wb";
    cfg.node.gpus.clear();
    cfg.dir_sharding = true;
    cfg.slave_to_slave = true;
    cfg.link.coalesce_window = 100e-6;
    return cfg;
  }
  long task_count() const override { return 2 * kProducers; }

  void drive(ompss::Env& env, Iteration& it, SpanLog* spans) override {
    std::vector<float> prod(kProducers * kFloats, 0.0f), sink(kProducers * kFloats, 0.0f);
    struct State {
      const float* value;
      SpanLog* spans;
      vt::Clock* clock;
    } st{value_.data(), spans, &env.clock()};
    const State* s = &st;

    env.run([&] {
      vt::Clock& clock = env.clock();
      PhaseTimer timer;
      const double vt0 = clock.now();
      for (long i = 0; i < kProducers; ++i) {
        auto b = ompss::task();
        b.out(&prod[i * kFloats], kFloats * sizeof(float));
        spawn(b,
              [s, i](ompss::Ctx& ctx) {
                BodySpan span(s->spans, static_cast<std::size_t>(i), *s->clock);
                s->clock->sleep_for(kBodySeconds);
                float* out = ctx.data_as<float>(0);
                for (std::size_t k = 0; k < kFloats; ++k) out[k] = s->value[i];
              },
              spans, static_cast<std::size_t>(i), clock);
      }
      for (long c = 0; c < kProducers; ++c) {
        const long a = pair_[c], bb = pair_[(c + 1) % kProducers];
        auto b = ompss::task();
        b.in(&prod[a * kFloats], kFloats * sizeof(float))
            .in(&prod[bb * kFloats], kFloats * sizeof(float))
            .out(&sink[c * kFloats], kFloats * sizeof(float));
        const std::size_t id = static_cast<std::size_t>(kProducers + c);
        spawn(b,
              [s, id](ompss::Ctx& ctx) {
                BodySpan span(s->spans, id, *s->clock);
                const float* x = ctx.data_as<const float>(0);
                const float* y = ctx.data_as<const float>(1);
                float* out = ctx.data_as<float>(2);
                for (std::size_t k = 0; k < kFloats; ++k) out[k] = x[k] + y[k];
              },
              spans, id, clock);
      }
      if (spans != nullptr) it.layers["vt.os_threads"] = os_threads();
      {
        DriverSpan span(spans, "taskwait", clock);
        ompss::taskwait_noflush();
      }
      it.vt_makespan_s = clock.now() - vt0;
      {
        // Brings every producer region and sink home for the output check.
        DriverSpan span(spans, "taskwait", clock);
        ompss::taskwait();
      }
      it.timed = timer.stop();
    });

    long bad = 0;
    for (long i = 0; i < kProducers; ++i) {
      for (std::size_t k = 0; k < kFloats; ++k) {
        if (prod[i * kFloats + k] != value_[i]) {
          ++bad;
          break;
        }
      }
      const float want = value_[pair_[i]] + value_[pair_[(i + 1) % kProducers]];
      for (std::size_t k = 0; k < kFloats; ++k) {
        if (sink[i * kFloats + k] != want) {
          ++bad;
          break;
        }
      }
    }
    it.failed = bad;
  }

private:
  std::vector<float> value_;         // producer i's value
  std::vector<std::int32_t> pair_;   // consumer c reads pair_[c] and pair_[c + 1]
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& trace_dir) {
  if (name == "fine_tasks") return std::make_unique<FineTasks>(seed);
  if (name == "cluster_matmul") return std::make_unique<ClusterMatmul>(seed, trace_dir);
  if (name == "cluster_protocol") return std::make_unique<ClusterProtocol>(seed);
  return nullptr;
}

}  // namespace perfbench
