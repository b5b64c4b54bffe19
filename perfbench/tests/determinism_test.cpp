// Determinism of the benchmark's inputs and outputs, on shrunken versions
// of every workload: two traced passes with the same seed give identical
// modelled metrics, work counters and stats digests, and a different seed
// changes them (so the seed reaches the generators). Every run must also
// pass its own checks, including traced-vs-untraced digest identity.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "report.hpp"

namespace {

using perfbench::Layer;

/// Quota multiplier: small enough for a test, large enough for contention.
constexpr double kSize = 0.1;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

/// Everything that must repeat exactly for a seed: modelled end-to-end
/// metrics, work counters and per-run digests.
struct Fingerprint {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::uint64_t> digests;
};

[[nodiscard]] Fingerprint fingerprint(const std::string& workload,
                                      std::uint64_t seed) {
  const auto specs = perfbench::make_runs(workload, seed, kSize);
  perfbench::SpanLog log(0);
  std::vector<std::string> failures;
  std::vector<std::uint64_t> reference;
  if (specs.front().observed) {
    reference = perfbench::reference_digests(specs, failures);
  }
  const std::vector<perfbench::Pass> passes = {perfbench::run_pass(
      specs, &log, reference.empty() ? nullptr : &reference)};
  failures.insert(failures.end(), passes[0].failures.begin(),
                  passes[0].failures.end());
  for (const std::string& f : failures) {
    expect(false, workload + " seed " + std::to_string(seed) + ": " + f);
  }

  Fingerprint fp;
  for (const perfbench::Metric& m :
       perfbench::end_to_end_metrics(passes, 1.0)) {
    if (m.unit != "s" && m.unit != "cycles/s" && m.unit != "MB") {
      fp.values.emplace_back(m.name, m.value);
    }
  }
  for (const perfbench::Metric& m : perfbench::per_layer_metrics(passes)) {
    if (m.unit == "count") fp.values.emplace_back(m.name, m.value);
  }
  for (const perfbench::RunOutcome& r : passes[0].untraced) {
    fp.digests.push_back(r.digest);
  }
  return fp;
}

void test_workload(const std::string& workload) {
  const Fingerprint a = fingerprint(workload, 7);
  const Fingerprint b = fingerprint(workload, 7);
  const Fingerprint c = fingerprint(workload, 8);
  expect(a.digests == b.digests, workload + ": same seed, different digests");
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    expect(a.values[i] == b.values[i],
           workload + ": same seed, " + a.values[i].first + " differs (" +
               std::to_string(a.values[i].second) + " vs " +
               std::to_string(b.values[i].second) + ")");
  }
  for (std::size_t i = 0; i < a.digests.size(); ++i) {
    expect(a.digests[i] != c.digests[i],
           workload + ": run " + std::to_string(i) +
               " digest does not depend on the seed");
  }
  bool modelled_changed = false;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (a.values[i].first == "sim_cycles") {
      modelled_changed = a.values[i].second != c.values[i].second;
    }
  }
  expect(modelled_changed, workload + ": sim_cycles does not depend on the seed");
}

void test_percentile_saturation() {
  // Ten samples, the last one in the overflow bucket (index 3 of 0..3).
  const std::vector<std::uint64_t> buckets = {5, 3, 1, 1};
  const perfbench::Percentile p50 = perfbench::percentile(buckets, 0.5);
  expect(p50.value == 0 && !p50.saturated, "p50 of a mostly-zero histogram");
  const perfbench::Percentile p99 = perfbench::percentile(buckets, 0.99);
  expect(p99.value == 3 && p99.saturated, "p99 in the overflow bucket");
  expect(!perfbench::percentile({}, 0.99).saturated, "empty histogram");
}

void test_span_nesting() {
  // Two inner spans, one nested in the other, then their outer span: the
  // outer's self time excludes the direct child only, and the inner
  // parent's self time excludes its own child.
  perfbench::SpanLog log(16);
  log.begin_run(0);
  log.open(Layer::kDirHandler);
  log.open(Layer::kObserve);
  log.close();
  log.close();
  const std::uint64_t dir_ticks = log.totals(Layer::kDirHandler).ticks;
  log.closed_outer(Layer::kMeshTick, dir_ticks + 1000, 0);
  log.end_run();
  expect(log.totals(Layer::kMeshTick).self_ticks == 1000,
         "outer self time excludes its child");
  expect(log.totals(Layer::kDirHandler).self_ticks ==
             dir_ticks - log.totals(Layer::kObserve).ticks,
         "inner self time excludes its child");
  const auto& s = log.spans();
  expect(s.size() == 3, "three spans kept");
  if (s.size() == 3) {
    expect(s[0].parent == s[1].id, "observe nests in the dir handler");
    expect(s[1].parent == s[2].id, "dir handler nests in the mesh tick");
    expect(s[2].parent == 0, "mesh tick is top level");
  }
}

}  // namespace

int main() {
  test_percentile_saturation();
  test_span_nesting();
  for (const std::string& w : perfbench::workload_names()) test_workload(w);
  std::printf("%s (%d failures)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
