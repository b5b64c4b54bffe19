// perfbench: the simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//
// Repeats the workload's fixed set of runs (one "pass") for as long as
// another pass fits in S seconds (at least once), checks every run, and prints each metric by name and unit,
// then one JSON line:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{NAME:{"value":V,
//    "unit":U},...}}
// --trace 0 reports the end-to-end metrics (untraced runs only); --trace 1
// runs every run untraced and traced and reports the per-layer metrics,
// writing the bounded raw span buffer to --spans-out. Exit status: 0 when
// the result line was printed (check "correct"), 2 on bad arguments.
// Workloads and metrics are described in perfbench/NOTES.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "report.hpp"

namespace {

using perfbench::Metric;

/// Raw spans kept per process (~40 bytes each).
constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;
/// Wall-clock limit on the whole process, whatever --seconds says: a run
/// that would take longer (a livelocked simulation under the invariant
/// checker, say) is stopped and fails, and the result is still printed.
constexpr std::chrono::seconds kTimeLimit{150};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n"
               "workloads:",
               msg.c_str());
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

[[nodiscard]] std::uint64_t parse_uint(const std::string& flag,
                                       const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage_error(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  int trace = -1;
  std::string spans_out;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = parse_uint(arg, value);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = parse_uint(arg, value);
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") usage_error("--trace must be 0 or 1");
      trace = t == "1" ? 1 : 0;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }
  if (!perfbench::known_workload(workload)) {
    usage_error("unknown workload '" + workload + "'");
  }
  if (!have_seed || !have_seconds || trace < 0) {
    usage_error("--seed, --seconds and --trace are required");
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const perfbench::Deadline deadline = start + kTimeLimit;
  const std::vector<perfbench::RunSpec> specs =
      perfbench::make_runs(workload, seed);
  std::vector<std::string> failures;
  std::size_t attempted = 0;

  // An observed workload must reproduce the digests of its runs with the
  // observability hooks off.
  std::vector<std::uint64_t> reference;
  const bool observed = specs.front().observed;
  if (observed) {
    reference = perfbench::reference_digests(specs, failures, deadline);
    attempted += specs.size();
  }

  std::optional<perfbench::SpanLog> log;
  if (trace == 1) log.emplace(kSpanCapacity);
  // Passes repeat while another one of the same length still fits in the
  // time budget; there is always at least one.
  const auto budget = std::chrono::seconds(seconds);
  std::vector<perfbench::Pass> passes;
  for (;;) {
    const auto pass_start = Clock::now();
    passes.push_back(perfbench::run_pass(specs, log ? &*log : nullptr,
                                         observed ? &reference : nullptr,
                                         deadline));
    const perfbench::Pass& p = passes.back();
    attempted += p.untraced.size() + p.traced.size();
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
    const auto now = Clock::now();
    if ((now - start) + (now - pass_start) > budget || now >= deadline) break;
  }
  perfbench::check_repeatable(passes, failures);

  const std::vector<Metric> metrics =
      trace == 1 ? perfbench::per_layer_metrics(passes)
                 : perfbench::end_to_end_metrics(passes, peak_rss_mb());

  std::printf("workload %s seed %llu: %zu passes of %zu runs (%s)\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              passes.size(), specs.size(),
              trace == 1 ? "untraced + traced" : "untraced");
  std::printf("  %-40s", "pass_run_s");
  for (const perfbench::Pass& p : passes) {
    double run_s = 0.0;
    for (const perfbench::RunOutcome& r : p.untraced) run_s += r.run_s;
    std::printf(" %.4g", run_s);
  }
  std::printf("\n");
  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
  std::printf("  %-40s %zu\n  %-40s %zu\n", "runs_attempted", attempted,
              "runs_failed", failures.size());
  for (const Metric& m : metrics) {
    if (m.saturated) {
      std::printf("  %-40s >= %.6g %s (saturated: at the histogram cap)\n",
                  m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  if (log && !spans_out.empty()) {
    std::ofstream out(spans_out, std::ios::trunc);
    log->write_jsonl(out);
    std::printf("  %zu spans written to %s (%llu not kept)\n",
                log->spans().size(), spans_out.c_str(),
                static_cast<unsigned long long>(log->dropped()));
  }
  print_json(failures.empty(), attempted,
             std::min(failures.size(), attempted), metrics);
  return 0;
}
