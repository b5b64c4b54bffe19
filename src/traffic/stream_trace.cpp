#include "traffic/stream_trace.hpp"

#include <stdexcept>

#include "workloads/trace_format.hpp"

namespace puno::traffic {

namespace fmt = workloads::trace_format;

namespace {

/// Consumes the remainder of another node's txn block (cheap first-token
/// classification, no field decoding). `lineno` tracks the cursor's line.
void skip_foreign_block(std::ifstream& in, std::size_t& lineno) {
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string tok = fmt::first_token(line);
    if (tok.empty()) continue;
    if (tok == "end") return;
    if (tok == "txn") fmt::fail(lineno, "nested 'txn'");
    if (tok != "r" && tok != "w") {
      fmt::fail(lineno, "unknown directive '" + tok + "'");
    }
  }
  fmt::fail(lineno, "unterminated txn block");
}

}  // namespace

StreamTraceWorkload::StreamTraceWorkload(const std::string& path,
                                         NodeId num_nodes)
    : name_("trace"), in_(path), cursors_(num_nodes) {
  if (!in_) throw std::runtime_error("cannot open trace file: " + path);
  // Read the workload name from the header up front (progress displays want
  // it before the first next()); cursors still validate it on first read.
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in_, line)) {
    ++lineno;
    const fmt::Line parsed = fmt::parse_line(line, lineno);
    if (parsed.kind == fmt::Line::Kind::kBlank) continue;
    if (parsed.kind != fmt::Line::Kind::kHeader) {
      fmt::fail(lineno, "missing 'trace-v1' header");
    }
    name_ = parsed.name;
    return;
  }
  fmt::fail(lineno, "empty trace");
}

std::optional<workloads::TxnDesc> StreamTraceWorkload::next(NodeId node) {
  Cursor& c = cursors_.at(node);
  if (c.done) return std::nullopt;

  in_.clear();
  in_.seekg(c.offset);
  std::string line;
  while (std::getline(in_, line)) {
    ++c.lineno;
    const std::string tok = fmt::first_token(line);
    if (tok.empty()) continue;

    if (!c.header_seen) {
      if (tok != "trace-v1") fmt::fail(c.lineno, "missing 'trace-v1' header");
      c.header_seen = true;
      continue;
    }

    if (tok != "txn") {
      fmt::fail(c.lineno, "'" + tok + "' outside a txn block");
    }
    const fmt::Line head = fmt::parse_line(line, c.lineno);
    if (head.node != node) {
      skip_foreign_block(in_, c.lineno);
      continue;
    }

    workloads::TxnDesc d;
    d.static_id = head.static_id;
    d.pre_think = head.pre;
    d.post_think = head.post;
    while (std::getline(in_, line)) {
      ++c.lineno;
      const fmt::Line parsed = fmt::parse_line(line, c.lineno);
      switch (parsed.kind) {
        case fmt::Line::Kind::kBlank:
          continue;
        case fmt::Line::Kind::kOp:
          d.ops.push_back(parsed.op);
          continue;
        case fmt::Line::Kind::kEnd:
          ++c.replayed;
          in_.clear();  // tellg fails once the last line has set eofbit
          c.offset = in_.tellg();
          return d;
        case fmt::Line::Kind::kTxn:
          fmt::fail(c.lineno, "nested 'txn'");
        case fmt::Line::Kind::kHeader:
          fmt::fail(c.lineno, "duplicate 'trace-v1' header");
      }
    }
    fmt::fail(c.lineno, "unterminated txn block");
  }

  if (!c.header_seen) fmt::fail(c.lineno, "empty trace");
  c.done = true;
  return std::nullopt;
}

std::uint64_t StreamTraceWorkload::replayed(NodeId node) const {
  return cursors_.at(node).replayed;
}

}  // namespace puno::traffic
