#include "runner/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <type_traits>

#ifdef _WIN32
#include <process.h>
#define PUNO_GETPID _getpid
#else
#include <unistd.h>
#define PUNO_GETPID getpid
#endif

#include "metrics/stats_io.hpp"

namespace puno::runner {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// Doubles rendered with max_digits10 so distinct values never collapse to
/// one key and equal values always render identically.
void put(std::ostream& os, const char* name, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << ' ' << name << '=' << buf;
}

void put(std::ostream& os, const char* name, bool v) {
  os << ' ' << name << '=' << (v ? 1 : 0);
}

/// Unsigned integers in decimal, enums by their spelling.
template <class T>
void put(std::ostream& os, const char* name, T v) {
  if constexpr (std::is_enum_v<T>) {
    os << ' ' << name << '=' << to_string(v);
  } else {
    os << ' ' << name << '=' << std::uint64_t{v};
  }
}

}  // namespace

std::string params_repr(const metrics::ExperimentParams& p) {
  // Every field of ExperimentParams, then every knob of SystemConfig in
  // knob-table order. A new SystemConfig knob is keyed by adding it to
  // for_each_knob; a new ExperimentParams field must be added here.
  // Exception: p.trace and p.telemetry are deliberately NOT keyed — both
  // are observational (bit-identical simulation either way), and the runner
  // never serves a traced or sampled job from the cache because the cached
  // row carries no trace/telemetry files.
  std::ostringstream os;
  os << "workload=" << p.workload;
  put(os, "scheme", p.scheme);
  put(os, "seed", p.seed);
  put(os, "scale", p.scale);
  put(os, "max_cycles", p.max_cycles);
  for_each_knob(p.base_config, [&os](const char* name, auto v, Knob) {
    put(os, name, v);
  });
  return os.str();
}

std::string cache_key(const metrics::ExperimentParams& params) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "v%d-%016llx", kCacheSchemaVersion,
                static_cast<unsigned long long>(fnv1a64(params_repr(params))));
  return buf;
}

fs::path ResultCache::default_dir() {
  if (const char* dir = std::getenv("PUNO_CACHE_DIR"); dir && dir[0] != '\0') {
    return dir;
  }
  return ".puno-cache";
}

fs::path ResultCache::entry_path(const metrics::ExperimentParams& p) const {
  return dir_ / (cache_key(p) + ".json");
}

std::optional<metrics::RunResult> ResultCache::load(
    const metrics::ExperimentParams& params) const {
  std::ifstream in(entry_path(params));
  if (!in) return std::nullopt;
  std::string header, body;
  if (!std::getline(in, header) || !std::getline(in, body)) {
    return std::nullopt;
  }
  // The header must carry this exact schema/params rendering; anything else
  // is a stale schema, a hash collision or a torn legacy entry.
  std::ostringstream expected;
  expected << "{\"puno_cache\":" << kCacheSchemaVersion << ",\"key\":\""
           << cache_key(params) << "\",\"params\":\""
           << metrics::json_escape(params_repr(params)) << "\"}";
  if (header != expected.str()) return std::nullopt;
  metrics::RunResult r;
  if (!metrics::read_result_jsonl(body, r)) return std::nullopt;
  return r;
}

bool ResultCache::store(const metrics::ExperimentParams& params,
                        const metrics::RunResult& result) const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return false;
  // Unique temp name per writer (pid + thread) so concurrent stores of the
  // same key never interleave; rename() makes publication atomic on POSIX
  // filesystems.
  std::ostringstream tmp_name;
  tmp_name << cache_key(params) << ".tmp." << PUNO_GETPID() << "."
           << std::hash<std::thread::id>{}(std::this_thread::get_id());
  const fs::path tmp = dir_ / tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << "{\"puno_cache\":" << kCacheSchemaVersion << ",\"key\":\""
        << cache_key(params) << "\",\"params\":\""
        << metrics::json_escape(params_repr(params)) << "\"}\n";
    metrics::write_result_jsonl(result, out);
    out.flush();
    if (!out) {
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, entry_path(params), ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace puno::runner
