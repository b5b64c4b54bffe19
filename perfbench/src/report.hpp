// Turns a workload's passes into named metrics.
//
// End-to-end metrics come from the untraced runs: host times are the median
// over passes of each pass's sum over runs; modelled metrics are sums over
// one pass's runs (they repeat exactly, which check_repeatable enforces).
// Per-layer metrics come from the traced runs the same way.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// The value is a histogram percentile at the histogram's cap: the true
  /// value is that or more.
  bool saturated = false;
};

[[nodiscard]] std::vector<Metric> end_to_end_metrics(
    const std::vector<Pass>& passes, double peak_rss_mb);

[[nodiscard]] std::vector<Metric> per_layer_metrics(
    const std::vector<Pass>& passes);

/// Appends a failure for every run whose digest, or (traced) work counters,
/// differ between passes.
void check_repeatable(const std::vector<Pass>& passes,
                      std::vector<std::string>& failures);

/// The p-quantile of a bucketed histogram (as sim::Histogram::percentile),
/// and whether it sits in the overflow bucket.
struct Percentile {
  std::uint64_t value = 0;
  bool saturated = false;
};
[[nodiscard]] Percentile percentile(const std::vector<std::uint64_t>& buckets,
                                    double p);

}  // namespace perfbench
