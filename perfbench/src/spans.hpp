// Per-layer host-time spans, recorded from outside the simulator.
//
// The benchmark's traced mode times calls into each module's public
// functions and nothing else: a sim::ProfileSink reports the kernel's mesh
// ticks, event drains and post-cycle hooks after they finish, and the
// decorators in harness.cpp bracket the directory/L1 message handlers, the
// PUNO DirectoryAssist calls and Workload::next(). Every span records its
// layer, start, end and parent; every call is aggregated into per-layer
// call counts, total time and self time (duration minus the time covered by
// its child spans). Raw spans go to a bounded buffer written out at the end.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/profile.hpp"

namespace perfbench {

/// The span names. Outer layers are reported by the kernel's ProfileSink;
/// inner layers are opened and closed by the benchmark's decorators.
enum class Layer : std::uint8_t {
  kMeshTick,       ///< noc: Mesh::tick (routers, NIs, ejection).
  kEventDrain,     ///< sim: one cycle's event-drain phase.
  kCheckHook,      ///< check: InvariantChecker post-cycle hook.
  kTelemetryHook,  ///< telemetry: TelemetrySampler post-cycle hook.
  kOtherOuter,     ///< any other tickable or hook (none today).
  kDirHandler,     ///< coherence: Directory::handle_message.
  kL1Handler,      ///< coherence: L1Controller::handle_message.
  kObserve,        ///< puno: DirectoryAssist::observe_request.
  kPredict,        ///< puno: DirectoryAssist::predict_unicast.
  kRecompute,      ///< puno: DirectoryAssist::recompute_ud.
  kMispredict,     ///< puno: DirectoryAssist::on_misprediction.
  kNext,           ///< workloads/traffic: Workload::next.
  kCount,
};
inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer l) noexcept;

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;       ///< Inclusive duration, host ticks.
  std::uint64_t self_ticks = 0;  ///< Duration minus child spans.
  /// Direct children (event drains only: used to estimate the events that
  /// ran no outside-timed call).
  std::uint64_t children = 0;
  std::uint64_t events = 0;      ///< Event handlers run (event drains only).
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no parent (top of Cmp::run).
  std::uint64_t start = 0;   ///< Host ticks.
  std::uint64_t end = 0;
  Layer layer = Layer::kCount;
  std::uint32_t run = 0;     ///< Index of the run within its pass.
};

class SpanLog {
 public:
  /// Raw spans past `capacity` are counted in dropped() and not kept.
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Starts a new run: clears the per-layer totals (raw spans are kept
  /// across runs, tagged with `run`).
  void begin_run(std::uint32_t run);
  /// Ends the run. Children still waiting for an outer parent (calls made
  /// outside any kernel phase) become parentless top-level spans.
  void end_run();

  /// Inner spans, strictly nested (LIFO).
  void open(Layer l);
  void close();

  /// An outer span that just finished after `ticks` host ticks. The inner
  /// spans that closed with no open parent since the previous outer span
  /// are its children.
  void closed_outer(Layer l, std::uint64_t ticks, std::uint64_t events);

  [[nodiscard]] const std::array<LayerTotals, kNumLayers>& totals()
      const noexcept {
    return totals_;
  }
  [[nodiscard]] const LayerTotals& totals(Layer l) const noexcept {
    return totals_[static_cast<std::size_t>(l)];
  }
  /// Time of the parentless inner spans (made outside any kernel phase).
  [[nodiscard]] std::uint64_t orphan_ticks() const noexcept {
    return orphan_ticks_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Writes the raw spans as JSON lines, times in nanoseconds from the
  /// first span.
  void write_jsonl(std::ostream& out) const;

 private:
  struct Frame {
    std::uint64_t id;
    std::uint64_t start;
    std::uint64_t child_ticks;
    Layer layer;
  };
  static constexpr std::uint64_t kPendingParent = ~std::uint64_t{0};

  void keep(const Span& s);
  void account(Layer l, std::uint64_t ticks, std::uint64_t self);

  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint32_t run_ = 0;
  std::vector<Frame> stack_;
  /// Inner spans closed with an empty stack, waiting for their outer parent.
  std::uint64_t pending_ticks_ = 0;
  std::uint64_t pending_count_ = 0;
  std::size_t pending_from_ = 0;  ///< First raw span that may need a parent.
  std::uint64_t orphan_ticks_ = 0;
  std::array<LayerTotals, kNumLayers> totals_{};
};

/// RAII inner span.
class Scope {
 public:
  Scope(SpanLog& log, Layer l) : log_(log) { log_.open(l); }
  ~Scope() { log_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
};

/// The kernel-side timer: maps the kernel's registered tickables and hooks
/// to layers by their registration names and forwards their costs.
class LayerSink final : public puno::sim::ProfileSink {
 public:
  explicit LayerSink(SpanLog& log) : log_(log) {}

  void declare_tickable(std::size_t idx, const char* name) override;
  void declare_hook(std::size_t idx, const char* name) override;
  void tickable_cost(std::size_t idx, std::uint64_t ticks) override;
  void hook_cost(std::size_t idx, std::uint64_t ticks) override;
  void event_cost(std::uint64_t events, std::uint64_t ticks) override;

 private:
  static void declare(std::vector<Layer>& v, std::size_t idx, Layer l);

  SpanLog& log_;
  std::vector<Layer> tickables_;
  std::vector<Layer> hooks_;
};

}  // namespace perfbench
