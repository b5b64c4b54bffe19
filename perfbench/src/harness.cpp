#include "harness.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>

#include "arch/cmp.hpp"
#include "check/invariant_checker.hpp"
#include "coherence/hooks.hpp"
#include "coherence/message.hpp"
#include "telemetry/sampler.hpp"
#include "trace/recorder.hpp"
#include "traffic/engine.hpp"
#include "traffic/registry.hpp"
#include "workloads/stamp.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using puno::Cycle;
using puno::NodeId;
using puno::Scheme;
using puno::SystemConfig;

[[nodiscard]] double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Independent per-run seeds derived from the workload seed (splitmix64).
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1;  // never 0
}

[[nodiscard]] SystemConfig mesh_config(std::uint32_t width, Scheme scheme,
                                       std::uint64_t seed) {
  SystemConfig cfg;
  cfg.num_nodes = width * width;
  cfg.noc.mesh_width = width;
  cfg.scheme = scheme;
  cfg.seed = seed;
  return cfg;
}

// Workload sizes. Each open-loop workload sums several independently
// seeded runs so that its modelled metrics vary little from seed to seed.
constexpr double kStampScale = 2.0;
constexpr int kCounterRuns = 24;
constexpr double kCounterScale = 0.125;  // 64 arrivals per core
constexpr int kSetRuns = 16;
constexpr double kSetScale = 0.0078;     // 4 arrivals per core
/// Invariant sweeps every this many cycles in the observed workload (the
/// checker's own default is 16, which makes the sweep ~95% of the run).
constexpr std::uint32_t kCheckerStride = 64;
/// Simulated cycles between checks of the wall-clock deadline.
constexpr Cycle kDeadlinePollCycles = 1 << 16;

[[nodiscard]] std::vector<RunSpec> stamp_runs(std::uint64_t seed, double size,
                                              bool puno_only, bool observed) {
  static constexpr Scheme kPaperSchemes[] = {
      Scheme::kBaseline, Scheme::kRandomBackoff, Scheme::kRmwPred,
      Scheme::kPuno};
  std::vector<RunSpec> runs;
  for (const std::string& profile : puno::workloads::stamp::benchmark_names()) {
    for (const Scheme s : kPaperSchemes) {
      if (puno_only && s != Scheme::kPuno) continue;
      RunSpec r;
      r.label = profile + "/" + puno::to_string(s);
      r.workload = profile;
      r.cfg = mesh_config(4, s, seed);
      r.scale = kStampScale * size;
      r.observed = observed;
      runs.push_back(std::move(r));
    }
  }
  return runs;
}

[[nodiscard]] std::vector<RunSpec> counter_runs(std::uint64_t seed,
                                                double size) {
  std::vector<RunSpec> runs;
  for (int k = 0; k < kCounterRuns; ++k) {
    RunSpec r;
    r.label = "traffic-counter#" + std::to_string(k);
    r.workload = "traffic-counter";
    r.cfg = mesh_config(16, Scheme::kBaseline, sub_seed(seed, k));
    r.cfg.traffic.arrival = puno::ArrivalKind::kOnOff;
    r.cfg.traffic.rate_per_kcycle = 1;
    r.cfg.traffic.queue_capacity = 32;
    r.scale = kCounterScale * size;
    runs.push_back(std::move(r));
  }
  return runs;
}

[[nodiscard]] std::vector<RunSpec> set_runs(std::uint64_t seed, double size) {
  std::vector<RunSpec> runs;
  for (int k = 0; k < kSetRuns; ++k) {
    RunSpec r;
    r.label = "traffic-set#" + std::to_string(k);
    r.workload = "traffic-set";
    r.cfg = mesh_config(32, Scheme::kPuno, sub_seed(seed, k));
    r.cfg.traffic.arrival = puno::ArrivalKind::kPoisson;
    r.scale = kSetScale * size;
    runs.push_back(std::move(r));
  }
  return runs;
}

/// Workload::next() under a span.
class TimingWorkload final : public puno::workloads::Workload {
 public:
  TimingWorkload(puno::workloads::Workload& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] std::optional<puno::workloads::TxnDesc> next(
      NodeId node) override {
    const Scope s(log_, Layer::kNext);
    return inner_.next(node);
  }

 private:
  puno::workloads::Workload& inner_;
  SpanLog& log_;
};

/// A directory's PUNO assist with every call under a span.
class TimingAssist final : public puno::coherence::DirectoryAssist {
 public:
  TimingAssist(puno::coherence::DirectoryAssist& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  void observe_request(NodeId src, puno::Timestamp ts,
                       Cycle avg_txn_len) override {
    const Scope s(log_, Layer::kObserve);
    inner_.observe_request(src, ts, avg_txn_len);
  }
  [[nodiscard]] NodeId predict_unicast(
      const puno::coherence::SharerSet& sharers, NodeId requester,
      puno::Timestamp req_ts, NodeId ud_hint) override {
    const Scope s(log_, Layer::kPredict);
    return inner_.predict_unicast(sharers, requester, req_ts, ud_hint);
  }
  [[nodiscard]] NodeId recompute_ud(
      const puno::coherence::SharerSet& sharers) override {
    const Scope s(log_, Layer::kRecompute);
    return inner_.recompute_ud(sharers);
  }
  void on_misprediction(NodeId mp_node) override {
    const Scope s(log_, Layer::kMispredict);
    inner_.on_misprediction(mp_node);
  }
  [[nodiscard]] Cycle prediction_latency() const override {
    return inner_.prediction_latency();
  }

 private:
  puno::coherence::DirectoryAssist& inner_;
  SpanLog& log_;
};

/// The message steering of arch::Cmp's constructor: requests, writebacks
/// and unblocks go to the home directory, everything else to the L1. The
/// digest check catches any drift from Cmp's own dispatch.
[[nodiscard]] bool for_directory(puno::coherence::MsgType t) {
  using puno::coherence::MsgType;
  switch (t) {
    case MsgType::kGetS:
    case MsgType::kGetX:
    case MsgType::kPutX:
    case MsgType::kUnblock:
    case MsgType::kWbData:
      return true;
    default:
      return false;
  }
}

void install_timers(puno::arch::Cmp& cmp, SpanLog& log,
                    std::vector<std::unique_ptr<TimingAssist>>& assists) {
  const auto n = static_cast<NodeId>(cmp.config().num_nodes);
  for (NodeId i = 0; i < n; ++i) {
    if (auto* inner = cmp.assist(i); inner != nullptr) {
      assists.push_back(std::make_unique<TimingAssist>(*inner, log));
      cmp.directory(i).set_assist(assists.back().get());
    }
    cmp.mesh().set_handler(i, [&cmp, &log, i](puno::noc::Packet p) {
      const auto* msg =
          static_cast<const puno::coherence::Message*>(p.payload.get());
      if (for_directory(msg->type)) {
        const Scope s(log, Layer::kDirHandler);
        cmp.directory(i).handle_message(*msg);
      } else {
        const Scope s(log, Layer::kL1Handler);
        cmp.l1(i).handle_message(*msg);
      }
    });
  }
}

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
}
void fnv(std::uint64_t& h, const std::string& s) {
  fnv(h, s.data(), s.size() + 1);  // with the terminator as separator
}
void fnv(std::uint64_t& h, std::uint64_t v) { fnv(h, &v, sizeof v); }
void fnv(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv(h, bits);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "stamp16", "counter256", "set1024", "stamp16_observed"};
  return names;
}

bool known_workload(const std::string& name) {
  for (const std::string& w : workload_names()) {
    if (name == w) return true;
  }
  return false;
}

std::vector<RunSpec> make_runs(const std::string& workload,
                               std::uint64_t seed, double size) {
  if (workload == "stamp16") return stamp_runs(seed, size, false, false);
  if (workload == "counter256") return counter_runs(seed, size);
  if (workload == "set1024") return set_runs(seed, size);
  if (workload == "stamp16_observed") {
    return stamp_runs(seed, size, true, true);
  }
  return {};
}

namespace {

/// Digest of every counter, scalar and histogram in `stats`, plus `cycle`.
[[nodiscard]] std::uint64_t stats_digest(const puno::sim::StatsRegistry& stats,
                                         Cycle cycle) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv(h, std::uint64_t{cycle});
  for (const auto& [name, c] : stats.counters()) {
    fnv(h, name);
    fnv(h, c.value());
  }
  for (const auto& [name, s] : stats.scalars()) {
    fnv(h, name);
    fnv(h, s.count());
    fnv(h, s.sum());
    fnv(h, s.min());
    fnv(h, s.max());
  }
  for (const auto& [name, hist] : stats.histograms()) {
    fnv(h, name);
    for (std::size_t i = 0; i < hist.num_buckets(); ++i) {
      fnv(h, hist.bucket(i));
    }
  }
  return h;
}

/// Runs `spec` once. A non-null `log` makes it a traced run whose spans are
/// tagged `run_index`. Never throws: a throw inside the run is a failure.
[[nodiscard]] RunOutcome execute(const RunSpec& spec, SpanLog* log,
                                 std::uint32_t run_index, Deadline deadline) {
  RunOutcome out;
  out.label = spec.label;
  try {
    // Declared before the Cmp so they outlive it: the Cmp holds pointers
    // to the decorators and the kernel to the sink.
    std::unique_ptr<TimingWorkload> timed_workload;
    std::vector<std::unique_ptr<TimingAssist>> assists;
    std::optional<LayerSink> sink;
    std::optional<puno::trace::TraceRecorder> recorder;

    const auto t0 = Clock::now();
    auto workload =
        puno::traffic::registry::make(spec.workload, spec.cfg, spec.scale);
    const auto t1 = Clock::now();
    puno::workloads::Workload* driven = workload.get();
    if (log != nullptr) {
      timed_workload = std::make_unique<TimingWorkload>(*workload, *log);
      driven = timed_workload.get();
    }
    puno::arch::Cmp cmp(spec.cfg, *driven);
    const auto t2 = Clock::now();

    auto* open = dynamic_cast<puno::traffic::OpenLoopWorkload*>(workload.get());
    if (open != nullptr) open->attach(cmp.kernel());
    std::unique_ptr<puno::check::InvariantChecker> checker;
    std::unique_ptr<puno::telemetry::TelemetrySampler> sampler;
    if (spec.observed) {
      puno::check::CheckerConfig checks;
      checks.stride = kCheckerStride;
      checker = puno::check::InvariantChecker::attach(cmp, checks);
      puno::telemetry::TelemetryRequest req;
      req.interval = 1000;
      req.spatial = true;
      sampler = puno::telemetry::TelemetrySampler::attach(cmp, req);
      recorder.emplace();
      cmp.kernel().set_tracer(&*recorder);
    }
    if (log != nullptr) {
      install_timers(cmp, *log, assists);
      sink.emplace(*log);
      cmp.kernel().set_profiler(&*sink);
      log->begin_run(run_index);
    }
    const auto t3 = Clock::now();
    // Slicing the run to poll the deadline does not change what it
    // simulates (arch::Cmp::run).
    const bool completed =
        cmp.run(spec.max_cycles, kDeadlinePollCycles,
                [deadline](Cycle) { return Clock::now() >= deadline; });
    const auto t4 = Clock::now();

    if (log != nullptr) {
      log->end_run();
      cmp.kernel().set_profiler(nullptr);
      out.layers = log->totals();
      out.orphan_ticks = log->orphan_ticks();
    }
    out.make_s = seconds(t0, t1);
    out.build_s = seconds(t1, t2);
    out.attach_s = seconds(t2, t3);
    out.run_s = seconds(t3, t4);

    const puno::sim::StatsRegistry& stats = cmp.kernel().stats();
    out.cycles = cmp.kernel().now();
    out.result = puno::metrics::RunResult::from_stats(stats);
    out.messages_delivered = cmp.mesh().messages_delivered();
    if (const auto it = stats.counters().find("puno.pbuffer_evictions");
        it != stats.counters().end()) {
      out.pbuffer_evictions = it->second.value();
    }
    if (const auto it = stats.histograms().find("traffic.queue_delay");
        it != stats.histograms().end()) {
      for (std::size_t i = 0; i < it->second.num_buckets(); ++i) {
        out.queue_delay.push_back(it->second.bucket(i));
      }
    }
    if (spec.observed) {
      cmp.kernel().set_tracer(nullptr);
      sampler->finish();
      out.violations = checker->violations().size();
      out.telemetry_samples = sampler->series().samples().size();
      out.trace_recorded = recorder->recorded();
      out.trace_dropped = recorder->dropped();
    }
    out.digest = stats_digest(stats, out.cycles);

    std::uint64_t expected_commits = 0;
    if (open != nullptr) {
      out.offered = open->offered();
      out.admitted = open->admitted();
      expected_commits = out.admitted;
    } else if (const auto* closed =
                   dynamic_cast<const puno::workloads::SyntheticWorkload*>(
                       workload.get())) {
      expected_commits = std::uint64_t{closed->spec().txns_per_node} *
                         spec.cfg.num_nodes;
      out.offered = out.admitted = expected_commits;
    }

    if (!completed && out.cycles < spec.max_cycles) {
      out.failure = "stopped at the time limit after " +
                    std::to_string(out.cycles) + " cycles";
    } else if (!completed) {
      out.failure = "hit the cycle cap (" + std::to_string(spec.max_cycles) +
                    " cycles)";
    } else if (out.result.commits != expected_commits) {
      out.failure = "committed " + std::to_string(out.result.commits) +
                    " transactions, expected " +
                    std::to_string(expected_commits);
    } else if (out.violations > 0) {
      out.failure = std::to_string(out.violations) + " invariant violations";
    }
  } catch (const std::exception& e) {
    out.failure = std::string("threw: ") + e.what();
  }
  out.ok = out.failure.empty();
  return out;
}

}  // namespace

Pass run_pass(const std::vector<RunSpec>& specs, SpanLog* log,
              const std::vector<std::uint64_t>* expected, Deadline deadline) {
  Pass pass;
  const auto fail = [&pass](const RunOutcome& r, const std::string& why) {
    pass.failures.push_back(r.label + ": " + why);
  };
  for (std::uint32_t i = 0; i < specs.size() && Clock::now() < deadline;
       ++i) {
    RunOutcome plain = execute(specs[i], nullptr, i, deadline);
    if (!plain.ok) fail(plain, plain.failure);
    if (plain.ok && expected != nullptr && plain.digest != (*expected)[i]) {
      plain.ok = false;
      fail(plain, "stats digest differs from the unobserved run");
    }
    if (log != nullptr) {
      RunOutcome traced = execute(specs[i], log, i, deadline);
      if (!traced.ok) fail(traced, "traced: " + traced.failure);
      if (traced.ok && traced.digest != plain.digest) {
        traced.ok = false;
        fail(traced, "traced stats digest differs from the untraced run");
      }
      pass.traced.push_back(std::move(traced));
    }
    pass.untraced.push_back(std::move(plain));
  }
  return pass;
}

std::vector<std::uint64_t> reference_digests(
    std::vector<RunSpec> specs, std::vector<std::string>& failures,
    Deadline deadline) {
  std::vector<std::uint64_t> digests;
  for (std::uint32_t i = 0; i < specs.size(); ++i) {
    specs[i].observed = false;
    const RunOutcome r = execute(specs[i], nullptr, i, deadline);
    if (!r.ok) failures.push_back(r.label + " (reference): " + r.failure);
    digests.push_back(r.digest);
  }
  return digests;
}

}  // namespace perfbench
