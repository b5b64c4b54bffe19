// docs/CONFIG.md completeness: the reference table must name every --set
// key, every knob of the knob table (for_each_knob) and every experiment
// parameter.
//
// The doc is hand-written; these checks make it impossible to add a knob to
// the table — which is what makes it a --set key and a cache-key field —
// without also documenting it. The tests fail with the missing key's name.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/experiment.hpp"
#include "runner/cache.hpp"
#include "runner/grid.hpp"
#include "sim/config.hpp"

#ifndef PUNO_DOCS_DIR
#error "config_doc_test must be compiled with -DPUNO_DOCS_DIR=..."
#endif

namespace puno {
namespace {

[[nodiscard]] std::string read_config_doc() {
  const std::filesystem::path path =
      std::filesystem::path(PUNO_DOCS_DIR) / "CONFIG.md";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ConfigDoc, DocumentsEveryOverridableKey) {
  const std::string doc = read_config_doc();
  ASSERT_FALSE(doc.empty());
  for (const std::string& key : runner::override_keys()) {
    EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
        << "docs/CONFIG.md is missing --set key `" << key << "`";
  }
}

// Every cache-key field: the five ExperimentParams fields params_repr
// renders first, then the knob table (settable and key-only alike, so every
// --set key is covered too).
TEST(ConfigDoc, DocumentsEveryCacheKeyField) {
  const std::string doc = read_config_doc();
  ASSERT_FALSE(doc.empty());
  std::vector<std::string> names = {"workload", "scheme", "seed", "scale",
                                    "max_cycles"};
  const SystemConfig cfg;
  for_each_knob(cfg, [&names](const char* name, const auto&, Knob) {
    names.emplace_back(name);
  });
  // The list is exactly the cache key's field list, so it cannot go stale.
  std::istringstream repr(runner::params_repr(metrics::ExperimentParams{}));
  std::vector<std::string> keyed;
  for (std::string tok; repr >> tok;) {
    keyed.push_back(tok.substr(0, tok.find('=')));
  }
  EXPECT_EQ(keyed, names);
  for (const std::string& name : names) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/CONFIG.md is missing `" << name << "`";
  }
}

}  // namespace
}  // namespace puno
