#include "report.hpp"

#include <algorithm>
#include <functional>

namespace perfbench {

namespace {

[[nodiscard]] double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Median over passes of f(pass).
[[nodiscard]] double median_over(const std::vector<Pass>& passes,
                                 const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

[[nodiscard]] double sum_of(const std::vector<RunOutcome>& runs,
                            const std::function<double(const RunOutcome&)>& f) {
  double s = 0.0;
  for (const RunOutcome& r : runs) s += f(r);
  return s;
}

/// Per-layer totals summed over a pass's traced runs.
[[nodiscard]] LayerTotals layer_sum(const Pass& p, Layer l) {
  LayerTotals t;
  for (const RunOutcome& r : p.traced) {
    const LayerTotals& x = r.layers[static_cast<std::size_t>(l)];
    t.calls += x.calls;
    t.ticks += x.ticks;
    t.self_ticks += x.self_ticks;
    t.children += x.children;
    t.events += x.events;
  }
  return t;
}

[[nodiscard]] double to_s(std::uint64_t ticks) {
  return static_cast<double>(ticks) / puno::sim::host_ticks_per_second();
}

[[nodiscard]] double self_s(const Pass& p, Layer l) {
  return to_s(layer_sum(p, l).self_ticks);
}

/// Sum of every layer's self time plus the parentless inner spans: the
/// part of the traced Cmp::run the spans account for.
[[nodiscard]] double layer_self_sum_s(const Pass& p) {
  double s = 0.0;
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    s += self_s(p, static_cast<Layer>(i));
  }
  for (const RunOutcome& r : p.traced) s += to_s(r.orphan_ticks);
  return s;
}

}  // namespace

Percentile percentile(const std::vector<std::uint64_t>& buckets, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return {};
  auto rank = static_cast<std::uint64_t>(p * static_cast<double>(total));
  if (static_cast<double>(rank) < p * static_cast<double>(total) || rank == 0) {
    ++rank;
  }
  rank = std::min(rank, total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) return {i, i + 1 == buckets.size()};
  }
  return {buckets.size() - 1, true};
}

std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes,
                                       double peak_rss_mb) {
  const auto run_s = [](const Pass& p) {
    return sum_of(p.untraced, [](const RunOutcome& r) { return r.run_s; });
  };
  const auto cycles = [](const Pass& p) {
    return sum_of(p.untraced, [](const RunOutcome& r) {
      return static_cast<double>(r.cycles);
    });
  };
  const std::vector<RunOutcome>& runs = passes.front().untraced;
  const auto total = [&runs](const std::function<double(const RunOutcome&)>& f) {
    return sum_of(runs, f);
  };
  const double commits = total(
      [](const RunOutcome& r) { return static_cast<double>(r.result.commits); });
  const double good = total([](const RunOutcome& r) {
    return static_cast<double>(r.result.good_cycles);
  });
  const double discarded = total([](const RunOutcome& r) {
    return static_cast<double>(r.result.discarded_cycles);
  });

  return {
      {"sim_cycles_per_s",
       median_over(passes,
                   [&](const Pass& p) { return ratio(cycles(p), run_s(p)); }),
       "cycles/s"},
      {"run_s", median_over(passes, run_s), "s"},
      {"setup_s", median_over(passes,
                              [](const Pass& p) {
                                return sum_of(p.untraced,
                                              [](const RunOutcome& r) {
                                                return r.setup_s();
                                              });
                              }),
       "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_cycles", cycles(passes.front()), "cycles"},
      {"aborts_per_commit",
       ratio(total([](const RunOutcome& r) {
               return static_cast<double>(r.result.aborts);
             }),
             commits),
       "ratio"},
      {"false_abort_rate",
       ratio(total([](const RunOutcome& r) {
               return static_cast<double>(r.result.false_abort_events);
             }),
             total([](const RunOutcome& r) {
               return static_cast<double>(r.result.tx_getx_issued);
             })),
       "ratio"},
      {"flits_per_commit",
       ratio(total([](const RunOutcome& r) {
               return static_cast<double>(r.result.router_traversals);
             }),
             commits),
       "flits"},
      {"txn_efficiency", ratio(good, good + discarded), "ratio"},
      {"admitted_frac",
       ratio(total([](const RunOutcome& r) {
               return static_cast<double>(r.admitted);
             }),
             total([](const RunOutcome& r) {
               return static_cast<double>(r.offered);
             })),
       "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<Pass>& passes) {
  const Pass& first = passes.front();
  const auto count = [&first](Layer l) {
    return static_cast<double>(layer_sum(first, l).calls);
  };
  const auto total = [&first](const std::function<double(const RunOutcome&)>& f) {
    return sum_of(first.traced, f);
  };
  const auto med_self = [&passes](Layer l) {
    return median_over(passes, [l](const Pass& p) { return self_s(p, l); });
  };
  const auto traced_run_s = [](const Pass& p) {
    return sum_of(p.traced, [](const RunOutcome& r) { return r.run_s; });
  };
  const auto untraced_run_s = [](const Pass& p) {
    return sum_of(p.untraced, [](const RunOutcome& r) { return r.run_s; });
  };

  const double cycles =
      total([](const RunOutcome& r) { return static_cast<double>(r.cycles); });
  const LayerTotals drain = layer_sum(first, Layer::kEventDrain);
  const double events = static_cast<double>(drain.events);
  const double events_s = median_over(passes, [](const Pass& p) {
    return to_s(layer_sum(p, Layer::kEventDrain).ticks);
  });
  const double mesh_s = med_self(Layer::kMeshTick);
  const double traversals = total([](const RunOutcome& r) {
    return static_cast<double>(r.result.router_traversals);
  });
  const double dir_s = med_self(Layer::kDirHandler);
  const double l1_s = med_self(Layer::kL1Handler);
  const double next_s = med_self(Layer::kNext);
  const double observes = count(Layer::kObserve);
  const double unicasts = total([](const RunOutcome& r) {
    return static_cast<double>(r.result.unicast_forwards);
  });
  const double mp = total([](const RunOutcome& r) {
    return static_cast<double>(r.result.mp_feedbacks);
  });
  const double services = total([](const RunOutcome& r) {
    return static_cast<double>(r.result.dir_txgetx_services);
  });
  const double blocked = total([](const RunOutcome& r) {
    return r.result.dir_blocked_mean *
           static_cast<double>(r.result.dir_txgetx_services);
  });

  std::vector<std::uint64_t> delay;
  for (const RunOutcome& r : first.traced) {
    if (delay.size() < r.queue_delay.size()) delay.resize(r.queue_delay.size());
    for (std::size_t i = 0; i < r.queue_delay.size(); ++i) {
      delay[i] += r.queue_delay[i];
    }
  }
  const Percentile p99 = percentile(delay, 0.99);

  std::vector<Metric> m = {
      // sim
      {"sim.events", events, "count"},
      {"sim.events_self_s", events_s, "s"},
      {"sim.ns_per_event", ratio(events_s * 1e9, events), "ns"},
      {"sim.events_per_cycle", ratio(events, cycles), "ratio"},
      // noc
      {"noc.mesh_tick_calls", count(Layer::kMeshTick), "count"},
      {"noc.mesh_self_s", mesh_s, "s"},
      {"noc.ns_per_cycle", ratio(mesh_s * 1e9, cycles), "ns"},
      {"noc.flit_traversals", traversals, "count"},
      {"noc.ns_per_traversal", ratio(mesh_s * 1e9, traversals), "ns"},
      {"noc.messages_delivered",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.messages_delivered);
       }),
       "count"},
      // coherence
      {"coherence.dir.calls", count(Layer::kDirHandler), "count"},
      {"coherence.dir.self_s", dir_s, "s"},
      {"coherence.dir.ns_per_call",
       ratio(dir_s * 1e9, count(Layer::kDirHandler)), "ns"},
      {"coherence.l1.calls", count(Layer::kL1Handler), "count"},
      {"coherence.l1.self_s", l1_s, "s"},
      {"coherence.l1.ns_per_call", ratio(l1_s * 1e9, count(Layer::kL1Handler)),
       "ns"},
      {"coherence.txgetx_nack_frac",
       ratio(total([](const RunOutcome& r) {
               return static_cast<double>(r.result.tx_getx_nacked);
             }),
             total([](const RunOutcome& r) {
               return static_cast<double>(r.result.tx_getx_issued);
             })),
       "ratio"},
      {"coherence.dir_blocked_mean_cycles", ratio(blocked, services),
       "cycles"},
      // htm
      {"htm.commits",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.result.commits);
       }),
       "count"},
      {"htm.aborts",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.result.aborts);
       }),
       "count"},
      {"htm.request_retries",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.result.request_retries);
       }),
       "count"},
      {"htm.notified_backoffs",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.result.notified_backoffs);
       }),
       "count"},
  };
  // puno
  static constexpr std::pair<const char*, Layer> kAssist[] = {
      {"observe_request", Layer::kObserve},
      {"predict_unicast", Layer::kPredict},
      {"recompute_ud", Layer::kRecompute},
      {"on_misprediction", Layer::kMispredict},
  };
  double assist_s = 0.0;
  for (const auto& [name, layer] : kAssist) {
    const double s = med_self(layer);
    assist_s += s;
    m.push_back({std::string("puno.") + name + ".calls", count(layer), "count"});
    m.push_back({std::string("puno.") + name + ".self_s", s, "s"});
  }
  const double offered = total([](const RunOutcome& r) {
    return static_cast<double>(r.result.offered_txns);
  });
  const double next_calls = count(Layer::kNext);
  std::vector<Metric> rest = {
      {"puno.assist_self_s", assist_s, "s"},
      {"puno.unicast_hit_rate", unicasts == 0.0 ? 0.0 : 1.0 - mp / unicasts,
       "ratio"},
      {"puno.pbuffer_evictions_per_observe",
       ratio(total([](const RunOutcome& r) {
               return static_cast<double>(r.pbuffer_evictions);
             }),
             observes),
       "ratio"},
      // workloads, traffic
      {"workload.make_s", median_over(passes,
                                      [](const Pass& p) {
                                        return sum_of(p.untraced,
                                                      [](const RunOutcome& r) {
                                                        return r.make_s;
                                                      });
                                      }),
       "s"},
      {"workload.next.calls", next_calls, "count"},
      {"workload.next_self_s", next_s, "s"},
      {"workload.ns_per_next", ratio(next_s * 1e9, next_calls), "ns"},
      {"traffic.offered", offered, "count"},
      {"traffic.dropped",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.result.dropped_txns);
       }),
       "count"},
      {"traffic.queue_delay_p99_cycles", static_cast<double>(p99.value),
       "cycles", p99.saturated},
      {"traffic.queue_delay_saturated", p99.saturated ? 1.0 : 0.0, "flag"},
      // arch
      {"arch.cmp_build_s", median_over(passes,
                                       [](const Pass& p) {
                                         return sum_of(p.untraced,
                                                       [](const RunOutcome& r) {
                                                         return r.build_s;
                                                       });
                                       }),
       "s"},
      // check, telemetry, trace
      {"check.hook_self_s", med_self(Layer::kCheckHook), "s"},
      {"check.violations",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.violations);
       }),
       "count"},
      {"telemetry.hook_self_s", med_self(Layer::kTelemetryHook), "s"},
      {"telemetry.samples",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.telemetry_samples);
       }),
       "count"},
      {"trace.events_recorded",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.trace_recorded);
       }),
       "count"},
      {"trace.events_dropped",
       total([](const RunOutcome& r) {
         return static_cast<double>(r.trace_dropped);
       }),
       "count"},
      // the benchmark's own
      {"sim.events_other_self_s", med_self(Layer::kEventDrain), "s"},
      {"sim.events_other",
       std::max(0.0, events - static_cast<double>(drain.children)), "count"},
      {"bench.trace_overhead_s",
       median_over(passes,
                   [&](const Pass& p) {
                     return traced_run_s(p) - untraced_run_s(p);
                   }),
       "s"},
      {"bench.untraced_run_s", median_over(passes, untraced_run_s), "s"},
      {"bench.layer_self_sum_s", median_over(passes, layer_self_sum_s), "s"},
      {"sim.loop_self_s",
       median_over(passes,
                   [&](const Pass& p) {
                     return traced_run_s(p) - layer_self_sum_s(p);
                   }),
       "s"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void check_repeatable(const std::vector<Pass>& passes,
                      std::vector<std::string>& failures) {
  const Pass& first = passes.front();
  for (std::size_t p = 1; p < passes.size(); ++p) {
    // A pass cut short by the time limit holds fewer runs.
    const std::size_t n =
        std::min(first.untraced.size(), passes[p].untraced.size());
    for (std::size_t i = 0; i < n; ++i) {
      const RunOutcome& a = first.untraced[i];
      const RunOutcome& b = passes[p].untraced[i];
      if (a.digest != b.digest) {
        failures.push_back(b.label + ": pass " + std::to_string(p) +
                           " stats digest differs from pass 0");
      }
    }
    const std::size_t m =
        std::min(first.traced.size(), passes[p].traced.size());
    for (std::size_t i = 0; i < m; ++i) {
      const RunOutcome& a = first.traced[i];
      const RunOutcome& b = passes[p].traced[i];
      for (std::size_t l = 0; l < kNumLayers; ++l) {
        if (a.layers[l].calls != b.layers[l].calls ||
            a.layers[l].events != b.layers[l].events) {
          failures.push_back(b.label + ": pass " + std::to_string(p) + " " +
                             layer_name(static_cast<Layer>(l)) +
                             " work counters differ from pass 0");
        }
      }
    }
  }
}

}  // namespace perfbench
