// Tests for the pluggable search-strategy subsystem: the factory, the
// multi-restart annealer (best-of-restarts, equal-budget dominance, a
// pinned result), and temperature re-heating.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/apps.h"
#include "mapping/eval_context.h"
#include "mapping/search_strategy.h"
#include "topo/library.h"

namespace sunmap::mapping {
namespace {

MapperConfig restart_config(int restarts, int total_iterations) {
  MapperConfig config;
  config.search = SearchKind::kRestartAnnealing;
  config.annealing_restarts = restarts;
  config.annealing_iterations = total_iterations;
  return config;
}

TEST(SearchStrategyFactory, ImplementsEveryKind) {
  for (const auto kind :
       {SearchKind::kGreedySwaps, SearchKind::kAnnealing,
        SearchKind::kRestartAnnealing}) {
    const auto strategy = make_search_strategy(kind);
    ASSERT_NE(strategy, nullptr);
    EXPECT_STREQ(strategy->name(), to_string(kind));
  }
}

TEST(RestartAnnealing, ProducesValidMapping) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  const auto result =
      Mapper(restart_config(4, 800)).map(app, *mesh);
  std::vector<bool> used(static_cast<std::size_t>(mesh->num_slots()), false);
  for (int slot : result.core_to_slot) {
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, mesh->num_slots());
    EXPECT_FALSE(used[static_cast<std::size_t>(slot)]);
    used[static_cast<std::size_t>(slot)] = true;
  }
  EXPECT_TRUE(result.eval.feasible());
}

// The acceptance bar: at the same total iteration budget, the restart
// annealer (restarts >= 4) never returns a worse cost than the single-seed
// chain on the VOPD mesh. Both searches are deterministic, so this is a
// fixed comparison, not a statistical one.
TEST(RestartAnnealing, NeverWorseThanSingleSeedAtEqualBudgetOnVopd) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  for (const int total : {1000, 2000}) {
    for (const int restarts : {4, 8}) {
      MapperConfig single;
      single.search = SearchKind::kAnnealing;
      single.annealing_iterations = total;
      const auto single_result = Mapper(single).map(app, *mesh);

      const auto restart_result =
          Mapper(restart_config(restarts, total)).map(app, *mesh);

      SCOPED_TRACE("total=" + std::to_string(total) +
                   " restarts=" + std::to_string(restarts));
      ASSERT_TRUE(single_result.eval.feasible());
      ASSERT_TRUE(restart_result.eval.feasible());
      EXPECT_LE(restart_result.eval.cost, single_result.eval.cost);
    }
  }
}

TEST(RestartAnnealing, MatchesPinnedResult) {
  // Every chain starts from the greedy initial mapping. On dsp the small
  // mapping space hides where a chain starts; on mpeg4, a chain that
  // started from an earlier chain's best would move core_to_slot.
  struct Case {
    CoreGraph app;
    int restarts = 0;
    int iterations = 0;
    std::vector<int> core_to_slot;
    double cost = 0.0;
    int evaluated = 0;
  };
  const Case cases[] = {
      {apps::dsp_filter(), 5, 600, {3, 4, 0, 1, 5, 2}, 2.0833333333333335,
       601},
      {apps::mpeg4(), 8, 2000, {3, 0, 7, 9, 11, 2, 10, 8, 5, 1, 4, 6},
       2.0836350018724255, 2001},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.app.name());
    const auto mesh = topo::make_mesh_for(c.app.num_cores());
    auto config = restart_config(c.restarts, c.iterations);
    config.link_bandwidth_mbps = 1000.0;
    const auto result = Mapper(config).map(c.app, *mesh);
    EXPECT_EQ(result.core_to_slot, c.core_to_slot);
    EXPECT_EQ(result.eval.cost, c.cost);
    EXPECT_EQ(result.evaluated_mappings, c.evaluated);
  }
}

TEST(RestartAnnealing, SingleRestartMatchesPlainAnnealing) {
  // One restart with the full budget runs the identical chain (same seed,
  // same uncompressed cooling) as the plain annealer.
  const auto app = apps::mwd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig single;
  single.search = SearchKind::kAnnealing;
  single.annealing_iterations = 500;
  auto restart = single;
  restart.search = SearchKind::kRestartAnnealing;
  restart.annealing_restarts = 1;
  const auto a = Mapper(single).map(app, *mesh);
  const auto b = Mapper(restart).map(app, *mesh);
  EXPECT_EQ(a.core_to_slot, b.core_to_slot);
  EXPECT_EQ(a.eval.cost, b.eval.cost);
  EXPECT_EQ(a.evaluated_mappings, b.evaluated_mappings);
}

TEST(RestartAnnealing, CollectsExploredTraceAcrossRestarts) {
  const auto app = apps::pip();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  auto config = restart_config(4, 400);
  config.collect_explored = true;
  const auto result = Mapper(config).map(app, *mesh);
  // The initial evaluation plus every chain iteration that evaluated.
  EXPECT_EQ(static_cast<int>(result.explored_area_power.size()),
            result.evaluated_mappings);
  EXPECT_GT(result.evaluated_mappings, 200);
}

TEST(Reheating, KeepsDeterminismAndValidity) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  auto config = restart_config(4, 800);
  config.annealing_reheats = 2;
  const auto a = Mapper(config).map(app, *mesh);
  const auto b = Mapper(config).map(app, *mesh);
  EXPECT_EQ(a.core_to_slot, b.core_to_slot);
  EXPECT_EQ(a.eval.cost, b.eval.cost);
  EXPECT_TRUE(a.eval.feasible());
}

TEST(Reheating, ZeroReheatsReproducesPlainSchedule) {
  const auto app = apps::dsp_filter();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig plain;
  plain.search = SearchKind::kAnnealing;
  plain.annealing_iterations = 300;
  plain.link_bandwidth_mbps = 1000.0;
  auto zero = plain;
  zero.annealing_reheats = 0;
  const auto a = Mapper(plain).map(app, *mesh);
  const auto b = Mapper(zero).map(app, *mesh);
  EXPECT_EQ(a.core_to_slot, b.core_to_slot);
  EXPECT_EQ(a.eval.cost, b.eval.cost);
}

TEST(SearchConfigValidation, RejectsBadRestartAndReheatCounts) {
  MapperConfig config;
  config.annealing_restarts = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = MapperConfig{};
  config.annealing_reheats = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = MapperConfig{};
  config.annealing_restarts = 16;
  config.annealing_reheats = 3;
  EXPECT_NO_THROW(config.validate());
}

TEST(SearchKindNames, RoundTrip) {
  EXPECT_STREQ(to_string(SearchKind::kGreedySwaps), "greedy-swaps");
  EXPECT_STREQ(to_string(SearchKind::kAnnealing), "annealing");
  EXPECT_STREQ(to_string(SearchKind::kRestartAnnealing), "restart-annealing");
}

}  // namespace
}  // namespace sunmap::mapping
