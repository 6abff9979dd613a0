#include "sim/data_manager.hpp"

#include <gtest/gtest.h>

namespace hetsched {
namespace {

TEST(DataManager, InitialStateAllInRam) {
  const DataManager dm(5, 3, 64);
  for (int t = 0; t < 5; ++t) {
    EXPECT_TRUE(dm.valid(t, 0));
    EXPECT_FALSE(dm.valid(t, 1));
    EXPECT_FALSE(dm.valid(t, 2));
    EXPECT_EQ(dm.replica_count(t), 1);
  }
  EXPECT_EQ(dm.tile_bytes(), 64u);
}

TEST(DataManager, AddReplicaKeepsOthers) {
  DataManager dm(2, 3, 64);
  dm.add_replica(0, 2);
  EXPECT_TRUE(dm.valid(0, 0));
  EXPECT_TRUE(dm.valid(0, 2));
  EXPECT_EQ(dm.replica_count(0), 2);
}

TEST(DataManager, WriteInvalidatesOthers) {
  DataManager dm(2, 3, 64);
  dm.add_replica(0, 1);
  dm.add_replica(0, 2);
  dm.set_only_valid(0, 2);
  EXPECT_FALSE(dm.valid(0, 0));
  EXPECT_FALSE(dm.valid(0, 1));
  EXPECT_TRUE(dm.valid(0, 2));
  EXPECT_EQ(dm.replica_count(0), 1);
}

TEST(DataManager, MissingTilesDeduplicated) {
  DataManager dm(4, 2, 64);
  Task t;
  t.accesses = {{0, AccessMode::Read},
                {1, AccessMode::Read},
                {1, AccessMode::ReadWrite},
                {2, AccessMode::ReadWrite}};
  const auto missing = [&](int node) {
    std::vector<int> out;
    dm.for_each_missing_tile(t, node, [&](int tile) { out.push_back(tile); });
    return out;
  };
  // On node 1 everything is missing, but tile 1 must be listed once.
  EXPECT_EQ(missing(1), std::vector<int>({0, 1, 2}));
  // On node 0 nothing is missing.
  EXPECT_TRUE(missing(0).empty());
}

TEST(DataManager, PickSourcePrefersRam) {
  DataManager dm(1, 3, 64);
  dm.add_replica(0, 1);  // now valid in RAM and node 1
  EXPECT_EQ(dm.pick_source(0, 2), 0);
}

TEST(DataManager, PickSourceFallsBackToDevice) {
  DataManager dm(1, 3, 64);
  dm.set_only_valid(0, 1);  // only on device 1
  EXPECT_EQ(dm.pick_source(0, 2), 1);
  EXPECT_EQ(dm.pick_source(0, 0), 1);
}

TEST(DataManager, PickSourceWhenAlreadyValid) {
  const DataManager dm(1, 2, 64);
  EXPECT_EQ(dm.pick_source(0, 0), -1);
}

TEST(DataManager, InvalidSizesThrow) {
  EXPECT_THROW(DataManager(0, 1, 8), std::invalid_argument);
  EXPECT_THROW(DataManager(1, 0, 8), std::invalid_argument);
}

}  // namespace
}  // namespace hetsched
