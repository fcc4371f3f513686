#include <gtest/gtest.h>

#include "topo/library.h"

namespace sunmap::topo {
namespace {

TEST(Library, MeshFor12IsThreeByFour) {
  const auto mesh = make_mesh_for(12);
  EXPECT_EQ(mesh->kind(), TopologyKind::kMesh);
  EXPECT_EQ(mesh->num_slots(), 12);
  EXPECT_EQ(mesh->num_switches(), 12);
}

TEST(Library, MeshFor16IsSquare) {
  const auto mesh = make_mesh_for(16);
  EXPECT_EQ(mesh->num_slots(), 16);
}

TEST(Library, MeshAvoidsDegenerateStrip) {
  const auto mesh = make_mesh_for(3);
  EXPECT_GE(mesh->num_slots(), 3);
  const auto* as_mesh = dynamic_cast<const Mesh*>(mesh.get());
  ASSERT_NE(as_mesh, nullptr);
  EXPECT_GE(as_mesh->rows(), 2);
}

TEST(Library, HypercubeRoundsUpToPowerOfTwo) {
  EXPECT_EQ(make_hypercube_for(12)->num_slots(), 16);
  EXPECT_EQ(make_hypercube_for(16)->num_slots(), 16);
  EXPECT_EQ(make_hypercube_for(17)->num_slots(), 32);
  EXPECT_EQ(make_hypercube_for(2)->num_slots(), 2);
}

TEST(Library, ClosCoversCoreCount) {
  for (int cores : {4, 6, 8, 12, 16, 20, 32}) {
    const auto clos = make_clos_for(cores);
    EXPECT_GE(clos->num_slots(), cores) << cores;
  }
}

TEST(Library, ButterflyForVopdIsFourAryTwoFly) {
  // §6.1: "the butterfly topology (4-ary 2-fly) has the least communication
  // delay" for the 12-core VOPD.
  const auto fly = make_butterfly_for(12);
  const auto* as_fly = dynamic_cast<const Butterfly*>(fly.get());
  ASSERT_NE(as_fly, nullptr);
  EXPECT_EQ(as_fly->radix(), 4);
  EXPECT_EQ(as_fly->stages(), 2);
}

TEST(Library, ButterflyPrefersFewestStages) {
  const auto owned = make_butterfly_for(6);
  const auto* fly = dynamic_cast<const Butterfly*>(owned.get());
  ASSERT_NE(fly, nullptr);
  EXPECT_EQ(fly->stages(), 2);
  EXPECT_EQ(fly->radix(), 3);
}

TEST(Library, ButterflyGrowsStagesBeyondMaxRadix) {
  const auto owned = make_butterfly_for(100, 8);
  const auto* fly = dynamic_cast<const Butterfly*>(owned.get());
  ASSERT_NE(fly, nullptr);
  EXPECT_EQ(fly->stages(), 3);
  EXPECT_GE(fly->num_slots(), 100);
}

TEST(Library, StandardLibraryHasFiveTopologies) {
  const auto library = standard_library(12);
  ASSERT_EQ(library.size(), 5u);
  EXPECT_EQ(library[0]->kind(), TopologyKind::kMesh);
  EXPECT_EQ(library[1]->kind(), TopologyKind::kTorus);
  EXPECT_EQ(library[2]->kind(), TopologyKind::kHypercube);
  EXPECT_EQ(library[3]->kind(), TopologyKind::kClos);
  EXPECT_EQ(library[4]->kind(), TopologyKind::kButterfly);
  for (const auto& topology : library) {
    EXPECT_GE(topology->num_slots(), 12) << topology->name();
  }
}

TEST(Library, ExtensionsIncludedWhenRequested) {
  const auto with_octagon = standard_library(8, /*include_extensions=*/true);
  EXPECT_EQ(with_octagon.size(), 7u);  // + octagon + star
  const auto without_octagon =
      standard_library(12, /*include_extensions=*/true);
  EXPECT_EQ(without_octagon.size(), 6u);  // octagon only fits 8 cores
}

TEST(Library, RejectsTinyApplications) {
  EXPECT_THROW(make_mesh_for(1), std::invalid_argument);
}

}  // namespace
}  // namespace sunmap::topo
