#include <gtest/gtest.h>

#include "fplan/floorplan.h"

namespace sunmap::fplan {
namespace {

TEST(BlockShape, SoftBlockDefaults) {
  const auto shape = BlockShape::soft_block(4.0);
  EXPECT_TRUE(shape.soft);
  EXPECT_DOUBLE_EQ(shape.area_mm2, 4.0);
  EXPECT_LT(shape.min_aspect, 1.0);
  EXPECT_GT(shape.max_aspect, 1.0);
}

TEST(BlockShape, HardBlockKeepsDimensions) {
  const auto shape = BlockShape::hard_block(2.0, 3.0);
  EXPECT_FALSE(shape.soft);
  EXPECT_DOUBLE_EQ(shape.area_mm2, 6.0);
  EXPECT_DOUBLE_EQ(shape.width_mm, 2.0);
  EXPECT_DOUBLE_EQ(shape.height_mm, 3.0);
}

Floorplan two_blocks() {
  std::vector<PlacedBlock> blocks;
  blocks.push_back(PlacedBlock{PlacedBlock::Kind::kCore, 0, 0, 0, 2, 2});
  blocks.push_back(PlacedBlock{PlacedBlock::Kind::kSwitch, 0, 3, 0, 1, 1});
  return Floorplan(std::move(blocks), 4.0, 2.0);
}

TEST(Floorplan, BasicAccessors) {
  const auto fp = two_blocks();
  EXPECT_DOUBLE_EQ(fp.width_mm(), 4.0);
  EXPECT_DOUBLE_EQ(fp.height_mm(), 2.0);
  EXPECT_DOUBLE_EQ(fp.area_mm2(), 8.0);
  EXPECT_DOUBLE_EQ(fp.aspect(), 2.0);
}

TEST(Floorplan, FindLocatesBlocks) {
  const auto fp = two_blocks();
  const auto core = fp.find(PlacedBlock::Kind::kCore, 0);
  ASSERT_TRUE(core.has_value());
  EXPECT_DOUBLE_EQ(core->cx(), 1.0);
  EXPECT_DOUBLE_EQ(core->cy(), 1.0);
  EXPECT_FALSE(fp.find(PlacedBlock::Kind::kCore, 7).has_value());
}

TEST(Floorplan, CenterDistanceIsManhattan) {
  const auto fp = two_blocks();
  // Core centre (1,1), switch centre (3.5, 0.5): |2.5| + |0.5| = 3.
  EXPECT_DOUBLE_EQ(fp.center_distance_mm(PlacedBlock::Kind::kCore, 0,
                                         PlacedBlock::Kind::kSwitch, 0),
                   3.0);
  EXPECT_THROW((void)fp.center_distance_mm(PlacedBlock::Kind::kCore, 0,
                                           PlacedBlock::Kind::kSwitch, 9),
               std::out_of_range);
}

TEST(Floorplan, DetectsOverlap) {
  std::vector<PlacedBlock> blocks;
  blocks.push_back(PlacedBlock{PlacedBlock::Kind::kCore, 0, 0, 0, 2, 2});
  blocks.push_back(PlacedBlock{PlacedBlock::Kind::kCore, 1, 1, 1, 2, 2});
  const Floorplan fp(std::move(blocks), 4.0, 4.0);
  EXPECT_FALSE(fp.overlap_free());
}

TEST(Floorplan, TouchingBlocksDoNotOverlap) {
  std::vector<PlacedBlock> blocks;
  blocks.push_back(PlacedBlock{PlacedBlock::Kind::kCore, 0, 0, 0, 2, 2});
  blocks.push_back(PlacedBlock{PlacedBlock::Kind::kCore, 1, 2, 0, 2, 2});
  const Floorplan fp(std::move(blocks), 4.0, 2.0);
  EXPECT_TRUE(fp.overlap_free());
}

TEST(Floorplan, WithinBoundsChecks) {
  const auto fp = two_blocks();
  EXPECT_TRUE(fp.within_bounds());
  std::vector<PlacedBlock> blocks;
  blocks.push_back(PlacedBlock{PlacedBlock::Kind::kCore, 0, 3, 0, 2, 2});
  const Floorplan outside(std::move(blocks), 4.0, 2.0);
  EXPECT_FALSE(outside.within_bounds());
}

TEST(Floorplan, EmptyAspectIsOne) {
  const Floorplan fp;
  EXPECT_DOUBLE_EQ(fp.aspect(), 1.0);
  EXPECT_TRUE(fp.overlap_free());
}

}  // namespace
}  // namespace sunmap::fplan
