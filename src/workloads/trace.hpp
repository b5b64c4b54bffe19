// Trace-driven workloads: record any workload's transaction stream to a
// plain-text trace and replay it later, bit-identically.
//
// Format (line oriented, '#' comments):
//
//   trace-v1 <name>
//   txn <node> <static_id> pre=<cycles> post=<cycles>
//   r <addr> pc=<id> think=<cycles>
//   w <addr> pc=<id> think=<cycles>
//   end
//
// Each `txn ... end` block appends one descriptor to `node`'s stream; cores
// consume their streams in file order. Traces make experiments portable
// across simulator versions (the synthetic generators may be retuned;
// a trace never changes) and allow replaying streams captured elsewhere.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace puno::workloads {

class TraceWorkload final : public Workload {
 public:
  /// Parses a trace from a stream. Throws std::runtime_error on malformed
  /// input, with the line number and the offending token in the message.
  static TraceWorkload parse(std::istream& in);

  /// Serializes any workload by draining it (next() is destructive).
  /// `max_per_node` caps the descriptors written per node; 0 (the default)
  /// means *unlimited* — drain each node until next() returns nullopt, so
  /// the caller must bound open-ended sources itself.
  static void record(Workload& source, std::uint32_t num_nodes,
                     std::ostream& out, std::uint32_t max_per_node = 0);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::optional<TxnDesc> next(NodeId node) override;

  /// Writes this trace back out (round-trip identical).
  void write(std::ostream& out) const;

  [[nodiscard]] std::size_t total_txns() const;
  [[nodiscard]] std::size_t txns_for(NodeId node) const;

  TraceWorkload() = default;

 private:
  std::string name_ = "trace";
  std::map<NodeId, std::vector<TxnDesc>> streams_;
  std::map<NodeId, std::size_t> cursor_;
};

}  // namespace puno::workloads
