#include "traffic/stream_trace.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "traffic/engine.hpp"
#include "workloads/trace.hpp"

namespace puno::traffic {
namespace {

[[nodiscard]] std::string write_temp(const std::string& text,
                                     const std::string& stem) {
  const std::filesystem::path p =
      std::filesystem::temp_directory_path() / (stem + ".trace");
  std::ofstream out(p, std::ios::trunc);
  out << text;
  return p.string();
}

/// Records a small open-loop workload (drain mode) to trace-v1 text.
[[nodiscard]] std::string record_traffic(NodeId nodes) {
  TrafficConfig cfg;
  cfg.arrivals_per_node = 10;
  cfg.keys = 128;
  OpenLoopWorkload wl(KernelKind::kQueue, cfg, nodes, 13, 64);
  std::ostringstream out;
  workloads::TraceWorkload::record(wl, nodes, out);
  return out.str();
}

void expect_same_desc(const workloads::TxnDesc& a,
                      const workloads::TxnDesc& b) {
  ASSERT_EQ(a.static_id, b.static_id);
  ASSERT_EQ(a.pre_think, b.pre_think);
  ASSERT_EQ(a.post_think, b.post_think);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t j = 0; j < a.ops.size(); ++j) {
    EXPECT_EQ(a.ops[j].addr, b.ops[j].addr);
    EXPECT_EQ(a.ops[j].is_store, b.ops[j].is_store);
    EXPECT_EQ(a.ops[j].pc, b.ops[j].pc);
    EXPECT_EQ(a.ops[j].pre_think, b.ops[j].pre_think);
  }
}

TEST(StreamTraceWorkload, MatchesMaterializedReplayDescriptorForDescriptor) {
  constexpr NodeId kNodes = 4;
  const std::string text = record_traffic(kNodes);
  const std::string path = write_temp(text, "stream-equiv");

  std::istringstream in(text);
  workloads::TraceWorkload materialized = workloads::TraceWorkload::parse(in);
  StreamTraceWorkload streaming(path, kNodes);

  for (NodeId n = 0; n < kNodes; ++n) {
    for (;;) {
      const auto a = materialized.next(n);
      const auto b = streaming.next(n);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a) break;
      expect_same_desc(*a, *b);
    }
    EXPECT_EQ(streaming.replayed(n), 10u);
  }
  std::filesystem::remove(path);
}

/// Lowers this process's soft RLIMIT_NOFILE for its lifetime.
struct SoftFdLimit {
  rlimit saved{};
  explicit SoftFdLimit(rlim_t soft) {
    EXPECT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit low = saved;
    low.rlim_cur = std::min(soft, saved.rlim_cur);
    EXPECT_EQ(setrlimit(RLIMIT_NOFILE, &low), 0);
  }
  ~SoftFdLimit() { setrlimit(RLIMIT_NOFILE, &saved); }
  SoftFdLimit(const SoftFdLimit&) = delete;
  SoftFdLimit& operator=(const SoftFdLimit&) = delete;
};

// A replay holds one file descriptor, not one per node, so a machine with
// more tiles than the soft descriptor limit still replays. The nodes take
// turns, one descriptor each, so every call resumes a different cursor.
TEST(StreamTraceWorkload, ReplaysMoreNodesThanTheDescriptorLimit) {
  constexpr NodeId kNodes = 64;
  const std::string text = record_traffic(kNodes);
  const std::string path = write_temp(text, "stream-fdlimit");
  std::istringstream in(text);
  workloads::TraceWorkload materialized = workloads::TraceWorkload::parse(in);
  {
    const SoftFdLimit limit(kNodes / 2);
    StreamTraceWorkload streaming(path, kNodes);
    for (bool more = true; more;) {
      more = false;
      for (NodeId n = 0; n < kNodes; ++n) {
        const auto a = materialized.next(n);
        const auto b = streaming.next(n);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (!a) continue;
        expect_same_desc(*a, *b);
        more = true;
      }
    }
    for (NodeId n = 0; n < kNodes; ++n) {
      EXPECT_EQ(streaming.replayed(n), 10u);
    }
  }
  std::filesystem::remove(path);
}

TEST(StreamTraceWorkload, CursorsAdvanceIndependently) {
  constexpr NodeId kNodes = 3;
  const std::string path =
      write_temp(record_traffic(kNodes), "stream-cursors");
  StreamTraceWorkload wl(path, kNodes);

  // Drain node 2 completely before touching the others.
  int node2 = 0;
  while (wl.next(2).has_value()) ++node2;
  EXPECT_EQ(node2, 10);
  EXPECT_EQ(wl.replayed(0), 0u);
  EXPECT_TRUE(wl.next(0).has_value());
  EXPECT_TRUE(wl.next(1).has_value());
  EXPECT_FALSE(wl.next(2).has_value());  // stays exhausted
  std::filesystem::remove(path);
}

TEST(StreamTraceWorkload, ThrowsOnMissingFile) {
  EXPECT_THROW(StreamTraceWorkload("/nonexistent/nowhere.trace", 2),
               std::runtime_error);
}

TEST(StreamTraceWorkload, MalformedLinesNameTheOffendingToken) {
  const std::string path = write_temp(
      "trace-v1 bad\n"
      "txn 0 1 pre=0 post=0\n"
      "r banana pc=1 think=0\n"
      "end\n",
      "stream-badtoken");
  StreamTraceWorkload wl(path, 1);
  try {
    (void)wl.next(0);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("banana"), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
  std::filesystem::remove(path);
}

TEST(StreamTraceWorkload, RejectsTruncatedBlocks) {
  const std::string path = write_temp(
      "trace-v1 truncated\n"
      "txn 0 1 pre=0 post=0\n"
      "r 64 pc=1 think=0\n",  // no `end`
      "stream-truncated");
  StreamTraceWorkload wl(path, 1);
  EXPECT_THROW((void)wl.next(0), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(StreamTraceWorkload, RejectsMissingHeader) {
  const std::string path = write_temp(
      "txn 0 1 pre=0 post=0\nend\n", "stream-noheader");
  // The header is validated eagerly when the reader opens the file.
  EXPECT_THROW(StreamTraceWorkload(path, 1), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace puno::traffic
