#include "spans.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>

namespace perfbench {

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kMeshTick: return "noc.mesh_tick";
    case Layer::kEventDrain: return "sim.event_drain";
    case Layer::kCheckHook: return "check.hook";
    case Layer::kTelemetryHook: return "telemetry.hook";
    case Layer::kOtherOuter: return "other";
    case Layer::kDirHandler: return "coherence.dir";
    case Layer::kL1Handler: return "coherence.l1";
    case Layer::kObserve: return "puno.observe_request";
    case Layer::kPredict: return "puno.predict_unicast";
    case Layer::kRecompute: return "puno.recompute_ud";
    case Layer::kMispredict: return "puno.on_misprediction";
    case Layer::kNext: return "workload.next";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanLog::begin_run(std::uint32_t run) {
  run_ = run;
  totals_ = {};
  stack_.clear();
  pending_ticks_ = 0;
  pending_count_ = 0;
  pending_from_ = spans_.size();
  orphan_ticks_ = 0;
}

void SpanLog::end_run() {
  for (std::size_t i = pending_from_; i < spans_.size(); ++i) {
    if (spans_[i].parent == kPendingParent) spans_[i].parent = 0;
  }
  orphan_ticks_ += pending_ticks_;
  pending_ticks_ = 0;
  pending_count_ = 0;
  pending_from_ = spans_.size();
}

void SpanLog::open(Layer l) {
  stack_.push_back(Frame{next_id_++, puno::sim::host_ticks(), 0, l});
}

void SpanLog::close() {
  const std::uint64_t end = puno::sim::host_ticks();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = end - f.start;
  account(f.layer, dur, dur - std::min(dur, f.child_ticks));
  std::uint64_t parent = kPendingParent;
  if (!stack_.empty()) {
    parent = stack_.back().id;
    stack_.back().child_ticks += dur;
  } else {
    pending_ticks_ += dur;
    ++pending_count_;
  }
  keep(Span{f.id, parent, f.start, end, f.layer, run_});
}

void SpanLog::closed_outer(Layer l, std::uint64_t ticks, std::uint64_t events) {
  const std::uint64_t end = puno::sim::host_ticks();
  const std::uint64_t id = next_id_++;
  account(l, ticks, ticks - std::min(ticks, pending_ticks_));
  LayerTotals& t = totals_[static_cast<std::size_t>(l)];
  t.children += pending_count_;
  t.events += events;
  for (std::size_t i = pending_from_; i < spans_.size(); ++i) {
    if (spans_[i].parent == kPendingParent) spans_[i].parent = id;
  }
  pending_ticks_ = 0;
  pending_count_ = 0;
  keep(Span{id, 0, end - ticks, end, l, run_});
  pending_from_ = spans_.size();
}

void SpanLog::account(Layer l, std::uint64_t ticks, std::uint64_t self) {
  LayerTotals& t = totals_[static_cast<std::size_t>(l)];
  ++t.calls;
  t.ticks += ticks;
  t.self_ticks += self;
}

void SpanLog::keep(const Span& s) {
  if (spans_.size() < capacity_) {
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
}

void SpanLog::write_jsonl(std::ostream& out) const {
  if (spans_.empty()) return;
  std::uint64_t base = spans_.front().start;
  for (const Span& s : spans_) base = std::min(base, s.start);
  const double ns_per_tick = 1e9 / puno::sim::host_ticks_per_second();
  const auto ns = [&](std::uint64_t t) {
    return static_cast<std::uint64_t>(static_cast<double>(t - base) *
                                      ns_per_tick);
  };
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << layer_name(s.layer) << "\",\"run\":" << s.run
        << ",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
        << "}\n";
  }
}

void LayerSink::declare(std::vector<Layer>& v, std::size_t idx, Layer l) {
  if (v.size() <= idx) v.resize(idx + 1, Layer::kOtherOuter);
  v[idx] = l;
}

void LayerSink::declare_tickable(std::size_t idx, const char* name) {
  declare(tickables_, idx,
          std::strcmp(name, "noc.mesh") == 0 ? Layer::kMeshTick
                                             : Layer::kOtherOuter);
}

void LayerSink::declare_hook(std::size_t idx, const char* name) {
  Layer l = Layer::kOtherOuter;
  if (std::strcmp(name, "check.invariants") == 0) l = Layer::kCheckHook;
  if (std::strcmp(name, "telemetry.sampler") == 0) l = Layer::kTelemetryHook;
  declare(hooks_, idx, l);
}

void LayerSink::tickable_cost(std::size_t idx, std::uint64_t ticks) {
  log_.closed_outer(tickables_[idx], ticks, 0);
}

void LayerSink::hook_cost(std::size_t idx, std::uint64_t ticks) {
  log_.closed_outer(hooks_[idx], ticks, 0);
}

void LayerSink::event_cost(std::uint64_t events, std::uint64_t ticks) {
  log_.closed_outer(Layer::kEventDrain, ticks, events);
}

}  // namespace perfbench
