// Tests for the mapper extensions: the weighted multi-objective, the
// floorplan-aware path-latency metric, and the simulated-annealing search.

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "mapping/mapper.h"
#include "topo/library.h"

namespace sunmap::mapping {
namespace {

TEST(WeightedObjective, CombinesNormalisedTerms) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.objective = Objective::kWeighted;
  config.weights.delay = 2.0;
  config.weights.area = 1.0;
  config.weights.power = 0.5;
  Mapper mapper(config);
  const auto result = mapper.map(app, *mesh);
  const auto& w = config.weights;
  const auto& e = result.eval;
  EXPECT_NEAR(e.cost,
              w.delay * e.avg_switch_hops / ObjectiveWeights::kRefHops +
                  w.area * e.design_area_mm2 / ObjectiveWeights::kRefAreaMm2 +
                  w.power * e.design_power_mw / ObjectiveWeights::kRefPowerMw,
              1e-9);
}

TEST(WeightedObjective, PureDelayWeightMatchesDelayRanking) {
  const auto app = apps::dsp_filter();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig weighted;
  weighted.objective = Objective::kWeighted;
  weighted.weights.delay = 1.0;
  weighted.weights.area = 0.0;
  weighted.weights.power = 0.0;
  weighted.link_bandwidth_mbps = 1000.0;
  MapperConfig delay;
  delay.objective = Objective::kMinDelay;
  delay.link_bandwidth_mbps = 1000.0;

  const auto weighted_result = Mapper(weighted).map(app, *mesh);
  const auto delay_result = Mapper(delay).map(app, *mesh);
  EXPECT_NEAR(weighted_result.eval.avg_switch_hops,
              delay_result.eval.avg_switch_hops, 1e-9);
}

TEST(PathLatency, PositiveAndConsistentWithHops) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  const auto result = Mapper().map(app, *mesh);
  // At 1 GHz, one cycle per switch alone puts the average latency above
  // hops x 1 ns; wire delay adds more.
  EXPECT_GT(result.eval.avg_path_latency_ns, result.eval.avg_switch_hops);
  EXPECT_LT(result.eval.avg_path_latency_ns,
            result.eval.avg_switch_hops + 10.0);
}

TEST(PathLatency, GrowsWithSlowerClock) {
  const auto app = apps::dsp_filter();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig fast;
  fast.link_bandwidth_mbps = 1000.0;
  MapperConfig slow = fast;
  slow.tech.clock_period_ps = 2000.0;  // 500 MHz
  const auto fast_result = Mapper(fast).map(app, *mesh);
  const auto slow_result = Mapper(slow).map(app, *mesh);
  EXPECT_GT(slow_result.eval.avg_path_latency_ns,
            fast_result.eval.avg_path_latency_ns);
}

TEST(Annealing, ProducesValidMapping) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.search = SearchKind::kAnnealing;
  config.annealing_iterations = 400;
  Mapper mapper(config);
  const auto result = mapper.map(app, *mesh);
  std::vector<bool> used(static_cast<std::size_t>(mesh->num_slots()), false);
  for (int slot : result.core_to_slot) {
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, mesh->num_slots());
    EXPECT_FALSE(used[static_cast<std::size_t>(slot)]);
    used[static_cast<std::size_t>(slot)] = true;
  }
  EXPECT_TRUE(result.eval.feasible());
}

TEST(Annealing, DeterministicForSameSeed) {
  const auto app = apps::dsp_filter();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.search = SearchKind::kAnnealing;
  config.annealing_iterations = 300;
  config.link_bandwidth_mbps = 1000.0;
  const auto a = Mapper(config).map(app, *mesh);
  const auto b = Mapper(config).map(app, *mesh);
  EXPECT_EQ(a.core_to_slot, b.core_to_slot);
  EXPECT_DOUBLE_EQ(a.eval.cost, b.eval.cost);
}

TEST(Annealing, NeverWorseThanGreedyInitial) {
  const auto app = apps::mwd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig initial_only;
  initial_only.swap_passes = 0;
  MapperConfig annealing;
  annealing.search = SearchKind::kAnnealing;
  annealing.annealing_iterations = 600;
  const auto base = Mapper(initial_only).map(app, *mesh);
  const auto annealed = Mapper(annealing).map(app, *mesh);
  EXPECT_TRUE(!base.eval.feasible() ||
              annealed.eval.cost <= base.eval.cost + 1e-9);
}

TEST(Annealing, TracksExploredMappings) {
  const auto app = apps::pip();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.search = SearchKind::kAnnealing;
  config.annealing_iterations = 200;
  config.collect_explored = true;
  const auto result = Mapper(config).map(app, *mesh);
  EXPECT_EQ(static_cast<int>(result.explored_area_power.size()),
            result.evaluated_mappings);
  EXPECT_GT(result.evaluated_mappings, 100);
}

TEST(SearchStrategy, ToStringNames) {
  EXPECT_STREQ(to_string(SearchKind::kGreedySwaps), "greedy-swaps");
  EXPECT_STREQ(to_string(SearchKind::kAnnealing), "annealing");
  EXPECT_STREQ(to_string(Objective::kWeighted), "weighted");
}

}  // namespace
}  // namespace sunmap::mapping
