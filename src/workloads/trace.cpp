#include "workloads/trace.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "workloads/trace_format.hpp"

namespace puno::workloads {

namespace fmt = trace_format;

TraceWorkload TraceWorkload::parse(std::istream& in) {
  TraceWorkload w;
  std::string line;
  std::size_t lineno = 0;

  bool header_seen = false;
  bool in_txn = false;
  NodeId cur_node = 0;
  TxnDesc cur;

  while (std::getline(in, line)) {
    ++lineno;
    const fmt::Line parsed = fmt::parse_line(line, lineno);
    switch (parsed.kind) {
      case fmt::Line::Kind::kBlank:
        break;
      case fmt::Line::Kind::kHeader:
        if (header_seen) fmt::fail(lineno, "duplicate 'trace-v1' header");
        w.name_ = parsed.name;
        header_seen = true;
        break;
      case fmt::Line::Kind::kTxn:
        if (!header_seen) fmt::fail(lineno, "missing 'trace-v1' header");
        if (in_txn) fmt::fail(lineno, "nested 'txn'");
        cur = TxnDesc{};
        cur.static_id = parsed.static_id;
        cur.pre_think = parsed.pre;
        cur.post_think = parsed.post;
        cur_node = parsed.node;
        in_txn = true;
        break;
      case fmt::Line::Kind::kOp:
        if (!header_seen) fmt::fail(lineno, "missing 'trace-v1' header");
        if (!in_txn) {
          fmt::fail(lineno, std::string("'") +
                                (parsed.op.is_store ? "w" : "r") +
                                "' outside a txn block");
        }
        cur.ops.push_back(parsed.op);
        break;
      case fmt::Line::Kind::kEnd:
        if (!header_seen) fmt::fail(lineno, "missing 'trace-v1' header");
        if (!in_txn) fmt::fail(lineno, "'end' outside a txn block");
        w.streams_[cur_node].push_back(std::move(cur));
        in_txn = false;
        break;
    }
  }
  if (in_txn) fmt::fail(lineno, "unterminated txn block");
  if (!header_seen) fmt::fail(lineno, "empty trace");
  return w;
}

void TraceWorkload::record(Workload& source, std::uint32_t num_nodes,
                           std::ostream& out, std::uint32_t max_per_node) {
  out << "trace-v1 " << source.name() << "\n";
  for (NodeId n = 0; n < num_nodes; ++n) {
    std::uint32_t count = 0;
    // max_per_node == 0 means unlimited: drain until the source's own
    // next() runs dry for this node. Open-ended sources (infinite
    // generators) must be bounded by the caller in that case.
    while (auto d = source.next(n)) {
      out << "txn " << n << " " << d->static_id << " pre=" << d->pre_think
          << " post=" << d->post_think << "\n";
      for (const TxOp& op : d->ops) {
        out << (op.is_store ? "w " : "r ") << op.addr << " pc=" << op.pc
            << " think=" << op.pre_think << "\n";
      }
      out << "end\n";
      if (max_per_node != 0 && ++count >= max_per_node) break;
    }
  }
}

void TraceWorkload::write(std::ostream& out) const {
  out << "trace-v1 " << name_ << "\n";
  for (const auto& [node, stream] : streams_) {
    for (const TxnDesc& d : stream) {
      out << "txn " << node << " " << d.static_id << " pre=" << d.pre_think
          << " post=" << d.post_think << "\n";
      for (const TxOp& op : d.ops) {
        out << (op.is_store ? "w " : "r ") << op.addr << " pc=" << op.pc
            << " think=" << op.pre_think << "\n";
      }
      out << "end\n";
    }
  }
}

std::optional<TxnDesc> TraceWorkload::next(NodeId node) {
  const auto it = streams_.find(node);
  if (it == streams_.end()) return std::nullopt;
  std::size_t& pos = cursor_[node];
  if (pos >= it->second.size()) return std::nullopt;
  return it->second[pos++];
}

std::size_t TraceWorkload::total_txns() const {
  std::size_t total = 0;
  for (const auto& [_, stream] : streams_) total += stream.size();
  return total;
}

std::size_t TraceWorkload::txns_for(NodeId node) const {
  const auto it = streams_.find(node);
  return it == streams_.end() ? 0 : it->second.size();
}

}  // namespace puno::workloads
