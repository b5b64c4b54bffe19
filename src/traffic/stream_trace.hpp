// Streaming trace-v1 replay: constant memory for arbitrarily large traces.
//
// This is the one trace replayer (punosim --replay). Parsing a whole trace
// with TraceWorkload::parse would materialize every descriptor of every node
// up front (a multi-GB production trace would not fit); StreamTraceWorkload
// keeps one cursor per node instead, a file offset plus a line number over
// one shared stream, so a replay holds one file descriptor whatever the
// node count. next(node) seeks to that node's offset, scans forward,
// skips other nodes' txn blocks with a cheap first-token classification,
// fully parses its own blocks through the shared trace_format helpers, and
// returns one descriptor at a time. Memory is O(nodes), not O(trace).
//
// Replay order per node is file order, identical to TraceWorkload — the
// equivalence test replays both against the same simulator config and pins
// bit-identical results.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace puno::traffic {

class StreamTraceWorkload final : public workloads::Workload {
 public:
  /// Opens `path` once and starts every node's cursor at its beginning;
  /// validates the header on the first read of each cursor. Throws
  /// std::runtime_error if the file cannot be opened or (lazily, from
  /// next()) on malformed content.
  StreamTraceWorkload(const std::string& path, NodeId num_nodes);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::optional<workloads::TxnDesc> next(NodeId node) override;

  /// Descriptors already returned for `node` (for progress reporting).
  [[nodiscard]] std::uint64_t replayed(NodeId node) const;

 private:
  struct Cursor {
    std::streamoff offset = 0;  ///< Where this node's scan resumes.
    std::size_t lineno = 0;
    std::uint64_t replayed = 0;
    bool header_seen = false;
    bool done = false;
  };

  std::string name_;
  std::ifstream in_;  ///< Shared by every cursor.
  std::vector<Cursor> cursors_;
};

}  // namespace puno::traffic
