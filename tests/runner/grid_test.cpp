// Config-override grid: the --set key registry and the mesh-shape coupling.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/grid.hpp"
#include "sim/config.hpp"

namespace puno::runner {
namespace {

TEST(ApplyOverride, NumNodesDerivesSquareMesh) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "num_nodes", "64"));
  EXPECT_EQ(cfg.num_nodes, 64u);
  EXPECT_EQ(cfg.noc.mesh_width, 8u);
  EXPECT_EQ(cfg.noc.rows(), 8u);
  EXPECT_EQ(validate(cfg), std::nullopt);

  ASSERT_TRUE(apply_override(cfg, "num_nodes", "1024"));
  EXPECT_EQ(cfg.noc.mesh_width, 32u);
  EXPECT_EQ(validate(cfg), std::nullopt);
}

TEST(ApplyOverride, NumNodesDerivesMostSquareRectangle) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "num_nodes", "32"));
  EXPECT_EQ(cfg.noc.mesh_width, 8u);
  EXPECT_EQ(cfg.noc.rows(), 4u);
  EXPECT_EQ(validate(cfg), std::nullopt);

  // A prime count degenerates to a 1-row mesh but stays valid.
  ASSERT_TRUE(apply_override(cfg, "num_nodes", "7"));
  EXPECT_EQ(cfg.noc.mesh_width, 7u);
  EXPECT_EQ(cfg.noc.rows(), 1u);
  EXPECT_EQ(validate(cfg), std::nullopt);
}

TEST(ApplyOverride, MeshDimensionsRecomputeNodeCount) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "noc.mesh_width", "8"));
  EXPECT_EQ(cfg.num_nodes, 64u);  // height 0 = square
  ASSERT_TRUE(apply_override(cfg, "noc.mesh_height", "4"));
  EXPECT_EQ(cfg.num_nodes, 32u);
  EXPECT_EQ(validate(cfg), std::nullopt);
  // Back to square.
  ASSERT_TRUE(apply_override(cfg, "noc.mesh_height", "0"));
  EXPECT_EQ(cfg.num_nodes, 64u);
}

TEST(ApplyOverride, DirectoryKnobs) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "dir.sharer_rep", "coarse"));
  EXPECT_EQ(cfg.dir.sharer_rep, SharerRep::kCoarse);
  ASSERT_TRUE(apply_override(cfg, "dir.sharer_rep", "limited"));
  EXPECT_EQ(cfg.dir.sharer_rep, SharerRep::kLimited);
  ASSERT_TRUE(apply_override(cfg, "dir.sharer_rep", "full"));
  EXPECT_EQ(cfg.dir.sharer_rep, SharerRep::kFull);
  EXPECT_FALSE(apply_override(cfg, "dir.sharer_rep", "nonesuch"));

  ASSERT_TRUE(apply_override(cfg, "dir.coarse_region", "8"));
  EXPECT_EQ(cfg.dir.coarse_region, 8u);
  ASSERT_TRUE(apply_override(cfg, "dir.limited_pointers", "8"));
  EXPECT_EQ(cfg.dir.limited_pointers, 8u);
  ASSERT_TRUE(apply_override(cfg, "dir.shards", "4"));
  EXPECT_EQ(cfg.dir.shards, 4u);
  ASSERT_TRUE(apply_override(cfg, "cache.l2_banks", "4"));
  EXPECT_EQ(cfg.cache.l2_banks, 4u);
}

// Outside input is parsed strictly: strtoull would wrap a negative number
// to a huge unsigned value and saturate an overflowing one, and strtod
// accepts nan/inf. All of those must be rejected, not silently mapped.
TEST(ApplyOverride, RejectsNegativeUnsignedValues) {
  SystemConfig cfg;
  EXPECT_FALSE(apply_override(cfg, "traffic.keys", "-1"));
  EXPECT_FALSE(apply_override(cfg, "noc.vc_depth", "-4294967295"));
  EXPECT_FALSE(apply_override(cfg, "puno.validity_threshold", "-1"));
  EXPECT_FALSE(apply_override(cfg, "num_nodes", "-16"));
  EXPECT_EQ(cfg.traffic.keys, SystemConfig{}.traffic.keys);
  EXPECT_EQ(cfg.noc.vc_depth, SystemConfig{}.noc.vc_depth);
}

TEST(ApplyOverride, RejectsOutOfRangeValues) {
  SystemConfig cfg;
  EXPECT_FALSE(apply_override(cfg, "traffic.keys", "99999999999999999999"));
  EXPECT_FALSE(apply_override(cfg, "noc.vc_depth", "4294967296"));
  EXPECT_FALSE(apply_override(cfg, "puno.validity_threshold", "256"));
  EXPECT_FALSE(apply_override(cfg, "traffic.zipf_theta", "1e999"));
  EXPECT_EQ(cfg.traffic.keys, SystemConfig{}.traffic.keys);
  ASSERT_TRUE(apply_override(cfg, "traffic.keys", "18446744073709551615"));
  EXPECT_EQ(cfg.traffic.keys, 18446744073709551615ull);
  ASSERT_TRUE(apply_override(cfg, "puno.validity_threshold", "255"));
  EXPECT_EQ(cfg.puno.validity_threshold, 255u);
}

TEST(ApplyOverride, RejectsNonFiniteDoubles) {
  SystemConfig cfg;
  for (const char* v : {"nan", "NAN", "inf", "-inf", "infinity"}) {
    EXPECT_FALSE(apply_override(cfg, "puno.timeout_fraction", v)) << v;
  }
  EXPECT_EQ(cfg.puno.timeout_fraction, SystemConfig{}.puno.timeout_fraction);
  ASSERT_TRUE(apply_override(cfg, "puno.timeout_fraction", "0.25"));
  EXPECT_EQ(cfg.puno.timeout_fraction, 0.25);
}

TEST(ApplyOverride, ParsesEveryFieldType) {
  SystemConfig cfg;
  ASSERT_TRUE(apply_override(cfg, "noc.vc_depth", "8"));
  EXPECT_EQ(cfg.noc.vc_depth, 8u);
  ASSERT_TRUE(apply_override(cfg, "cache.l2_size_bytes", "17179869184"));
  EXPECT_EQ(cfg.cache.l2_size_bytes, 17179869184ull);
  ASSERT_TRUE(apply_override(cfg, "traffic.hot_frac", "0.5"));
  EXPECT_EQ(cfg.traffic.hot_frac, 0.5);
  ASSERT_TRUE(apply_override(cfg, "puno.enable_commit_hint", "on"));
  EXPECT_TRUE(cfg.puno.enable_commit_hint);
  ASSERT_TRUE(apply_override(cfg, "noc.always_tick", "true"));
  EXPECT_TRUE(cfg.noc.always_tick);
  ASSERT_TRUE(apply_override(cfg, "puno.enable_unicast", "0"));
  EXPECT_FALSE(cfg.puno.enable_unicast);
  EXPECT_FALSE(apply_override(cfg, "puno.enable_unicast", "yes"));
  ASSERT_TRUE(apply_override(cfg, "traffic.arrival", "onoff"));
  EXPECT_EQ(cfg.traffic.arrival, ArrivalKind::kOnOff);
  ASSERT_TRUE(apply_override(cfg, "traffic.placement", "pack"));
  EXPECT_EQ(cfg.traffic.placement, PlacementMode::kPack);
  EXPECT_FALSE(apply_override(cfg, "traffic.placement", "Pack"));
  EXPECT_FALSE(apply_override(cfg, "noc.vc_depth", ""));
  EXPECT_FALSE(apply_override(cfg, "noc.vc_depth", "8x"));
  EXPECT_FALSE(apply_override(cfg, "no.such_key", "1"));
}

// Structural fields that are cache-keyed but not overridable.
TEST(ApplyOverride, KeyOnlyFieldsAreNotSettable) {
  SystemConfig cfg;
  EXPECT_FALSE(apply_override(cfg, "noc.num_vnets", "4"));
  EXPECT_FALSE(apply_override(cfg, "cache.block_bytes", "32"));
  EXPECT_FALSE(apply_override(cfg, "cache.num_memory_controllers", "2"));
  const auto& keys = override_keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::find(keys.begin(), keys.end(), "noc.num_vnets"), keys.end());
}

TEST(ParseSeedList, RejectsNegativeAndOverflowingSeeds) {
  EXPECT_THROW((void)parse_seed_list("-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_seed_list("1,-2"), std::invalid_argument);
  EXPECT_THROW((void)parse_seed_list("99999999999999999999"),
               std::invalid_argument);
  EXPECT_EQ(parse_seed_list("3,5"), (std::vector<std::uint64_t>{3, 5}));
  EXPECT_EQ(parse_seed_list("2..4"), (std::vector<std::uint64_t>{2, 3, 4}));
}

TEST(OverrideKeys, NewScalingKnobsAreRegistered) {
  const auto& keys = override_keys();
  for (const char* key :
       {"num_nodes", "noc.mesh_width", "noc.mesh_height", "cache.l2_banks",
        "dir.sharer_rep", "dir.coarse_region", "dir.limited_pointers",
        "dir.shards", "puno.pbuffer_entries"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), std::string(key)),
              keys.end())
        << key << " missing from --set registry";
  }
}

}  // namespace
}  // namespace puno::runner
