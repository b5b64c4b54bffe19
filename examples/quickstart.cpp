// Quickstart: simulate one STAMP-like workload under the baseline HTM and
// under PUNO, and print the headline metrics side by side.
//
//   ./quickstart [benchmark] [seed]
//
// Benchmarks: bayes intruder labyrinth yada genome kmeans ssca2 vacation.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "metrics/experiment.hpp"
#include "sim/parse.hpp"

int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "intruder";
  const std::uint64_t seed =
      argc > 2 ? puno::sim::flag_value<std::uint64_t>("seed", argv[2]) : 1;

  std::printf("PUNO quickstart — workload '%s', seed %llu\n\n", bench.c_str(),
              static_cast<unsigned long long>(seed));

  puno::metrics::ExperimentParams params;
  params.workload = bench;
  params.seed = seed;

  params.scheme = puno::Scheme::kBaseline;
  const auto base = puno::metrics::run_experiment(params);
  params.scheme = puno::Scheme::kPuno;
  const auto puno_run = puno::metrics::run_experiment(params);

  const auto row = [](const char* name, double b, double p,
                      const char* unit) {
    std::printf("  %-28s %14.1f %14.1f %8s   (%+.1f%%)\n", name, b, p, unit,
                b == 0.0 ? 0.0 : (p - b) / b * 100.0);
  };

  std::printf("  %-28s %14s %14s\n", "", "Baseline", "PUNO");
  row("execution time", static_cast<double>(base.cycles),
      static_cast<double>(puno_run.cycles), "cycles");
  row("commits", static_cast<double>(base.commits),
      static_cast<double>(puno_run.commits), "txns");
  row("aborts", static_cast<double>(base.aborts),
      static_cast<double>(puno_run.aborts), "txns");
  row("network traffic", static_cast<double>(base.router_traversals),
      static_cast<double>(puno_run.router_traversals), "flit-hops");
  row("false-abort events", static_cast<double>(base.false_abort_events),
      static_cast<double>(puno_run.false_abort_events), "reqs");
  row("dir blocked per TxGETX", base.dir_blocked_mean,
      puno_run.dir_blocked_mean, "cycles");
  std::printf("\n  abort rate: baseline %.1f%%  puno %.1f%%\n",
              base.abort_rate() * 100.0, puno_run.abort_rate() * 100.0);
  std::printf("  G/D ratio:  baseline %.2f  puno %.2f\n", base.gd_ratio(),
              puno_run.gd_ratio());
  std::printf("  PUNO unicasts %llu, prediction hit rate %.1f%%\n",
              static_cast<unsigned long long>(puno_run.unicast_forwards),
              puno_run.prediction_hit_rate() * 100.0);
  std::printf("  completed: baseline=%d puno=%d\n", base.completed,
              puno_run.completed);
  return 0;
}
