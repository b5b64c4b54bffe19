// The benchmark's workloads and the code that runs them.
//
// Every run drives arch::Cmp directly (no runner, no result cache): build
// the workload, build the Cmp, attach what the run needs, call Cmp::run.
// A traced run additionally wraps the public entry points of each layer in
// timing decorators (see spans.hpp); an untraced run attaches nothing, and
// the end-to-end metrics come only from untraced runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/run_result.hpp"
#include "sim/config.hpp"
#include "spans.hpp"

namespace perfbench {

/// One simulation of a workload.
struct RunSpec {
  std::string label;     ///< Unique within the workload, e.g. "intruder/PUNO".
  std::string workload;  ///< traffic::registry name.
  puno::SystemConfig cfg;
  double scale = 1.0;    ///< Per-node transaction / arrival quota multiplier.
  puno::Cycle max_cycles = 30'000'000;
  /// Attach the invariant checker, the spatial telemetry sampler and a
  /// trace recorder (the observability hooks).
  bool observed = false;
};

/// The benchmark's workloads, in BENCHMARK.json order (which also says
/// why each was chosen).
[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] bool known_workload(const std::string& name);

/// The fixed set of runs of `workload` for `seed`. `size` multiplies every
/// run's quota (1 = the benchmark; the determinism tests run smaller).
[[nodiscard]] std::vector<RunSpec> make_runs(const std::string& workload,
                                             std::uint64_t seed,
                                             double size = 1.0);

/// Everything one run produced.
struct RunOutcome {
  std::string label;
  bool ok = false;
  std::string failure;  ///< Why !ok.

  // Host seconds.
  double make_s = 0.0;    ///< Workload generation.
  double build_s = 0.0;   ///< Cmp construction.
  double attach_s = 0.0;  ///< Open-loop attach, hooks, decorators.
  double run_s = 0.0;     ///< Inside Cmp::run.
  [[nodiscard]] double setup_s() const { return make_s + build_s + attach_s; }

  // Modelled outcomes (deterministic for a given spec).
  puno::Cycle cycles = 0;
  puno::metrics::RunResult result;
  std::uint64_t offered = 0;   ///< Arrivals offered (closed loop: quota).
  std::uint64_t admitted = 0;  ///< Arrivals admitted (closed loop: quota).
  std::vector<std::uint64_t> queue_delay;  ///< traffic.queue_delay buckets.
  std::uint64_t messages_delivered = 0;
  std::uint64_t pbuffer_evictions = 0;
  std::uint64_t violations = 0;
  std::uint64_t telemetry_samples = 0;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  /// FNV-1a digest of the full stats-registry dump and the final cycle.
  std::uint64_t digest = 0;

  // Traced runs only.
  std::array<LayerTotals, kNumLayers> layers{};
  std::uint64_t orphan_ticks = 0;
};

/// Wall-clock limit on a benchmark process: a run still going at the
/// deadline is stopped and fails, and no further run starts.
using Deadline = std::chrono::steady_clock::time_point;

/// One pass over a workload's runs.
struct Pass {
  std::vector<RunOutcome> untraced;
  std::vector<RunOutcome> traced;  ///< Empty in untraced mode.
  std::vector<std::string> failures;
};

/// Runs every spec once untraced and, with a log, once traced. Checks each
/// run, that traced runs reproduce the untraced digests, and (when given)
/// that the untraced digests equal `expected`. Stops early at `deadline`.
[[nodiscard]] Pass run_pass(const std::vector<RunSpec>& specs, SpanLog* log,
                            const std::vector<std::uint64_t>* expected,
                            Deadline deadline = Deadline::max());

/// The digests of `specs` run once untraced with the observability hooks
/// off: the reference an observed workload must reproduce.
[[nodiscard]] std::vector<std::uint64_t> reference_digests(
    std::vector<RunSpec> specs, std::vector<std::string>& failures,
    Deadline deadline = Deadline::max());

}  // namespace perfbench
