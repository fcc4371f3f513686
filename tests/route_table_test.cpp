#include <gtest/gtest.h>

#include "sim/route_table.h"
#include "topo/library.h"

namespace sunmap::sim {
namespace {

TEST(RouteTable, SetAndGet) {
  RouteTable table(4);
  EXPECT_FALSE(table.has(0, 1));
  route::RouteSet routes;
  graph::Path path;
  path.nodes = {0, 1};
  path.edges = {0};
  routes.paths.push_back(route::WeightedPath{path, 1.0});
  table.set(0, 1, routes);
  EXPECT_TRUE(table.has(0, 1));
  EXPECT_EQ(table.at(0, 1).paths.size(), 1u);
  EXPECT_THROW((void)table.at(1, 0), std::out_of_range);
}

TEST(RouteTable, RejectsBadInput) {
  EXPECT_THROW(RouteTable(1), std::invalid_argument);
  RouteTable table(3);
  EXPECT_THROW(table.set(0, 1, route::RouteSet{}), std::invalid_argument);
  EXPECT_THROW((void)table.has(0, 3), std::out_of_range);
}

TEST(RouteTable, AllPairsCoversEveryPair) {
  const auto mesh = topo::make_mesh_for(9);
  const auto table =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  EXPECT_EQ(table.num_slots(), 9);
  for (int a = 0; a < 9; ++a) {
    for (int b = 0; b < 9; ++b) {
      if (a == b) {
        EXPECT_FALSE(table.has(a, b));
      } else {
        ASSERT_TRUE(table.has(a, b));
        EXPECT_EQ(table.at(a, b).paths[0].path.nodes.front(),
                  mesh->ingress_switch(a));
        EXPECT_EQ(table.at(a, b).paths[0].path.nodes.back(),
                  mesh->egress_switch(b));
      }
    }
  }
}

TEST(RouteTable, AllPairsSplitMinHasDiversityOnClos) {
  const auto clos = topo::make_clos_for(8);
  const auto table =
      RouteTable::all_pairs(*clos, route::RoutingKind::kSplitMin);
  // Slots on different edge switches split over all middle switches.
  int multi_path_pairs = 0;
  for (int a = 0; a < clos->num_slots(); ++a) {
    for (int b = 0; b < clos->num_slots(); ++b) {
      if (a == b) continue;
      if (table.at(a, b).paths.size() > 1) ++multi_path_pairs;
    }
  }
  EXPECT_GT(multi_path_pairs, 0);
}

}  // namespace
}  // namespace sunmap::sim
