#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>

#include "apps/apps.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "topo/custom.h"
#include "topo/library.h"

namespace sunmap::mapping {
namespace {

/// Four cores in a simple pipeline a -> b -> c -> d.
CoreGraph pipeline4() {
  CoreGraph app("pipeline4");
  app.add_core("a", 2.0);
  app.add_core("b", 2.0);
  app.add_core("c", 2.0);
  app.add_core("d", 2.0);
  app.add_flow(0, 1, 300.0);
  app.add_flow(1, 2, 200.0);
  app.add_flow(2, 3, 100.0);
  return app;
}

TEST(Mapper, RejectsOversizedApplication) {
  const auto mesh = topo::make_mesh_for(4);
  Mapper mapper;
  const auto app = apps::vopd();  // 12 cores onto 4 slots
  EXPECT_THROW(mapper.map(app, *mesh), std::invalid_argument);
}

TEST(Mapper, RejectsInvalidConfig) {
  MapperConfig config;
  config.link_bandwidth_mbps = 0.0;
  EXPECT_THROW(Mapper{config}, std::invalid_argument);
}

TEST(MapperConfig, ValidateRejectsEachBadField) {
  // The centralised validation behind Mapper, the explorer, and the CLI.
  EXPECT_NO_THROW(MapperConfig{}.validate());

  // Each rejection message must name the offending value ("got ..."): a
  // sweep rejects one design point out of hundreds, and without the value
  // the caller cannot tell which axis entry produced it.
  const auto rejects = [](auto&& mutate, const std::string& value) {
    MapperConfig config;
    mutate(config);
    try {
      config.validate();
      ADD_FAILURE() << "validate() accepted a config that should name "
                    << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
          << "message \"" << e.what() << "\" does not name " << value;
    }
    EXPECT_THROW(Mapper{config}, std::invalid_argument);
  };
  rejects([](MapperConfig& c) { c.link_bandwidth_mbps = -10.0; },
          "got " + std::to_string(-10.0));
  rejects([](MapperConfig& c) { c.link_bandwidth_mbps = 0.0; },
          "got " + std::to_string(0.0));
  rejects([](MapperConfig& c) { c.max_area_mm2 = -1.0; },
          "got " + std::to_string(-1.0));
  rejects([](MapperConfig& c) { c.swap_passes = -1; }, "got -1");
  rejects([](MapperConfig& c) { c.reroute_passes = -2; }, "got -2");
  rejects([](MapperConfig& c) { c.annealing_iterations = -3; }, "got -3");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  rejects([](MapperConfig& c) { c.annealing_restarts = 0; }, "got 0");
  // Restarts past the iteration budget would run empty chains, and each
  // holds memory: a daemon request must not claim gigabytes with one key.
  rejects([](MapperConfig& c) { c.annealing_restarts = 1000000; },
          "annealing_restarts must be <= max(1, annealing_iterations) = "
          "2000, got 1000000");
  rejects(
      [](MapperConfig& c) {
        c.annealing_iterations = 0;
        c.annealing_restarts = 2;
      },
      "= 1, got 2");
  rejects([](MapperConfig& c) { c.annealing_reheats = -4; }, "got -4");
  // A chain cannot reheat more often than it iterates; at INT_MAX the
  // reheat schedule's loop would never end.
  rejects([](MapperConfig& c) { c.annealing_reheats = 2147483647; },
          "annealing_reheats must be <= annealing_iterations = 2000, got "
          "2147483647");
  rejects(
      [](MapperConfig& c) {
        c.annealing_iterations = 0;
        c.annealing_restarts = 1;
        c.annealing_reheats = 1;
      },
      "annealing_reheats must be <= annealing_iterations = 0, got 1");
  rejects([](MapperConfig& c) { c.floorplan.sizing_passes = -5; }, "got -5");
  rejects([](MapperConfig& c) { c.floorplan.spacing_mm = -0.25; },
          std::to_string(-0.25));
  rejects([](MapperConfig& c) { c.weights.delay = -1.0; },
          "delay=" + std::to_string(-1.0));
  // +inf has no meaning as a weight: every weighted cost would read inf.
  rejects([](MapperConfig& c) { c.weights.delay = kInf; }, "delay=inf");
  rejects([](MapperConfig& c) { c.weights.area = kInf; }, "area=inf");
  rejects([](MapperConfig& c) { c.weights.power = kInf; }, "power=inf");
  rejects([](MapperConfig& c) { c.faults.infeasible_penalty = 0.5; },
          "got " + std::to_string(0.5));
  // A +inf penalty turns faulty costs into inf, which would still rank as
  // a feasible winner.
  rejects([](MapperConfig& c) { c.faults.infeasible_penalty = kInf; },
          "infeasible_penalty must be finite and >= 1, got inf");
  rejects(
      [](MapperConfig& c) {
        c.faults.spec.kind = fault::FaultSpec::Kind::kRandom;
        c.faults.spec.num_scenarios = 0;
      },
      "got 0");
  // Every random scenario costs each context its BFS tables, so the count
  // is capped before anything is materialized.
  rejects(
      [](MapperConfig& c) {
        c.faults.spec.kind = fault::FaultSpec::Kind::kRandom;
        c.faults.spec.num_scenarios = 2000000000;
      },
      "num_scenarios must be in [1, 1024], got 2000000000");
  rejects(
      [](MapperConfig& c) {
        c.faults.spec.kind = fault::FaultSpec::Kind::kRandom;
        c.faults.spec.faults_per_scenario = -1;
      },
      "got -1");
  rejects(
      [](MapperConfig& c) {
        c.faults.spec.kind = fault::FaultSpec::Kind::kExplicit;
        c.faults.spec.scenarios.push_back({{{-1, 3}}, {}});
      },
      "got -1-3");
  rejects(
      [](MapperConfig& c) {
        c.faults.spec.kind = fault::FaultSpec::Kind::kExplicit;
        c.faults.spec.scenarios.push_back({{}, {-7}});
      },
      "got -7");
}

TEST(Mapper, GreedyPlacementSurvivesOverflowingHopCosts) {
  // Each rate is finite, but rate x hops overflows to +inf for every free
  // slot, so no slot is strictly cheaper than the initial +inf: the second
  // core must still land on a real slot (the first free one), never -1.
  CoreGraph app("overflow");
  app.add_core("a", 2.0);
  app.add_core("b", 2.0);
  app.add_flow(0, 1, 1.7e308);
  const auto mesh = topo::make_mesh_for(4);
  const auto result = Mapper().map(app, *mesh);
  ASSERT_EQ(result.core_to_slot.size(), 2u);
  for (const int slot : result.core_to_slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, mesh->num_slots());
  }
  EXPECT_NE(result.core_to_slot[0], result.core_to_slot[1]);
}

TEST(Mapper, MappingIsInjective) {
  const auto app = pipeline4();
  const auto mesh = topo::make_mesh_for(4);
  Mapper mapper;
  const auto result = mapper.map(app, *mesh);
  std::set<int> slots(result.core_to_slot.begin(), result.core_to_slot.end());
  EXPECT_EQ(slots.size(), 4u);
  for (int slot : result.core_to_slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, mesh->num_slots());
  }
}

TEST(Mapper, InverseMappingConsistent) {
  const auto app = apps::dsp_filter();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  Mapper mapper;
  const auto result = mapper.map(app, *mesh);
  for (int core = 0; core < app.num_cores(); ++core) {
    EXPECT_EQ(result.slot_to_core[static_cast<std::size_t>(
                  result.core_to_slot[static_cast<std::size_t>(core)])],
              core);
  }
}

TEST(Mapper, EvaluateRejectsBadMappings) {
  const auto app = pipeline4();
  const auto mesh = topo::make_mesh_for(4);
  Mapper mapper;
  EXPECT_THROW(mapper.evaluate(app, *mesh, {0, 1}), std::invalid_argument);
  EXPECT_THROW(mapper.evaluate(app, *mesh, {0, 1, 2, 9}),
               std::invalid_argument);
  EXPECT_THROW(mapper.evaluate(app, *mesh, {0, 1, 2, 2}),
               std::invalid_argument);
}

TEST(Mapper, PipelineOnMeshMapsAdjacent) {
  // A pipeline fits a 2x2 mesh with every flow on neighbouring switches.
  const auto app = pipeline4();
  const auto mesh = topo::make_mesh_for(4);
  Mapper mapper;
  const auto result = mapper.map(app, *mesh);
  EXPECT_TRUE(result.eval.feasible());
  EXPECT_DOUBLE_EQ(result.eval.avg_switch_hops, 2.0);
  EXPECT_DOUBLE_EQ(result.eval.max_link_load_mbps, 300.0);
}

TEST(Mapper, ExactLoadsForKnownMapping) {
  const auto app = pipeline4();
  const auto mesh = topo::make_mesh_for(4);  // 2x2
  Mapper mapper;
  // a=slot0, b=slot1, c=slot3, d=slot2: all hops adjacent.
  const auto eval = mapper.evaluate(app, *mesh, {0, 1, 3, 2});
  EXPECT_TRUE(eval.bandwidth_feasible);
  EXPECT_DOUBLE_EQ(eval.avg_switch_hops, 2.0);
  EXPECT_DOUBLE_EQ(eval.max_link_load_mbps, 300.0);
}

TEST(Mapper, DetectsBandwidthInfeasibility) {
  MapperConfig config;
  config.link_bandwidth_mbps = 150.0;  // below the 300 MB/s flow
  Mapper mapper(config);
  const auto app = pipeline4();
  const auto mesh = topo::make_mesh_for(4);
  const auto result = mapper.map(app, *mesh);
  EXPECT_FALSE(result.eval.bandwidth_feasible);
  EXPECT_FALSE(result.eval.feasible());
  EXPECT_GT(result.eval.max_link_load_mbps, 150.0);
}

TEST(Mapper, DetectsAreaInfeasibility) {
  MapperConfig config;
  config.max_area_mm2 = 1.0;  // absurdly small chip
  Mapper mapper(config);
  const auto app = pipeline4();
  const auto mesh = topo::make_mesh_for(4);
  const auto result = mapper.map(app, *mesh);
  EXPECT_FALSE(result.eval.area_feasible);
}

TEST(Mapper, SwapSearchNeverWorsens) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());

  MapperConfig no_swaps;
  no_swaps.swap_passes = 0;
  MapperConfig with_swaps;
  with_swaps.swap_passes = 2;

  const auto initial = Mapper(no_swaps).map(app, *mesh);
  const auto improved = Mapper(with_swaps).map(app, *mesh);
  EXPECT_LE(improved.eval.cost, initial.eval.cost + 1e-12);
  EXPECT_GT(improved.evaluated_mappings, initial.evaluated_mappings);
}

TEST(Mapper, ObjectiveSelectsCostMetric) {
  const auto app = apps::dsp_filter();
  const auto mesh = topo::make_mesh_for(app.num_cores());

  MapperConfig delay;
  delay.objective = Objective::kMinDelay;
  MapperConfig area;
  area.objective = Objective::kMinArea;
  MapperConfig power;
  power.objective = Objective::kMinPower;

  const auto d = Mapper(delay).map(app, *mesh);
  EXPECT_DOUBLE_EQ(d.eval.cost, d.eval.avg_switch_hops);
  const auto a = Mapper(area).map(app, *mesh);
  EXPECT_DOUBLE_EQ(a.eval.cost, a.eval.design_area_mm2);
  const auto p = Mapper(power).map(app, *mesh);
  EXPECT_DOUBLE_EQ(p.eval.cost, p.eval.design_power_mw);
}

TEST(Mapper, PowerDecomposes) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  const auto result = Mapper().map(app, *mesh);
  EXPECT_NEAR(result.eval.design_power_mw,
              result.eval.dynamic_power_mw + result.eval.static_power_mw,
              1e-9);
  EXPECT_GT(result.eval.dynamic_power_mw, 0.0);
  EXPECT_GT(result.eval.static_power_mw, 0.0);
}

TEST(Mapper, RoutesAlignedWithCommodities) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  const auto result = Mapper().map(app, *mesh);
  const auto commodities = commodities_by_value(app);
  ASSERT_EQ(result.eval.routes.size(), commodities.size());
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const auto& routes = result.eval.routes[k];
    ASSERT_FALSE(routes.paths.empty());
    const int src_slot = result.core_to_slot[static_cast<std::size_t>(
        commodities[k].src_core)];
    EXPECT_EQ(routes.paths[0].path.nodes.front(),
              mesh->ingress_switch(src_slot));
  }
}

TEST(Mapper, CollectExploredGathersParetoRawPoints) {
  MapperConfig config;
  config.collect_explored = true;
  Mapper mapper(config);
  const auto app = apps::dsp_filter();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  const auto result = mapper.map(app, *mesh);
  EXPECT_EQ(static_cast<int>(result.explored_area_power.size()),
            result.evaluated_mappings);
  for (const auto& [area, power] : result.explored_area_power) {
    EXPECT_GT(area, 0.0);
    EXPECT_GT(power, 0.0);
  }
}

TEST(Mapper, RouteLoadsReproduceMaxLinkLoad) {
  // Each edge's load, recomputed from the winner's routes (commodity value
  // x path fraction), peaks at the reported max link load, which a
  // feasible winner keeps within the link bandwidth.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  const auto commodities = commodities_by_value(app);
  for (route::RoutingKind kind : route::kAllRoutingKinds) {
    SCOPED_TRACE(route::to_string(kind));
    MapperConfig config;
    config.routing = kind;
    const auto result = Mapper(config).map(app, *mesh);
    ASSERT_EQ(result.eval.routes.size(), commodities.size());
    std::vector<double> loads(
        static_cast<std::size_t>(mesh->switch_graph().num_edges()), 0.0);
    for (std::size_t k = 0; k < commodities.size(); ++k) {
      for (const auto& wp : result.eval.routes[k].paths) {
        for (graph::EdgeId e : wp.path.edges) {
          loads[static_cast<std::size_t>(e)] +=
              commodities[k].value_mbps * wp.fraction;
        }
      }
    }
    const double max_load = *std::max_element(loads.begin(), loads.end());
    EXPECT_NEAR(max_load, result.eval.max_link_load_mbps,
                1e-9 * result.eval.max_link_load_mbps);
    if (result.eval.feasible()) {
      EXPECT_LE(max_load, config.link_bandwidth_mbps + 1e-6);
    }
    if (kind == route::RoutingKind::kMinPath) {
      EXPECT_TRUE(result.eval.feasible());  // the default routing
    }
  }
}

/// Maps twice through one context and scratch. The second search visits
/// exactly the mappings the first one did, so each of its light
/// evaluations (the greedy start and every unpruned candidate) hits the
/// metrics cache, and the winner's one materialization does not look it
/// up.
void expect_warm_map_only_hits(SearchKind search) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.objective = Objective::kMinPower;  // the greedy search moves
  config.search = search;
  config.annealing_iterations = 300;
  const Mapper mapper(config);
  const auto ctx = mapper.make_context(app, *mesh);
  EvalScratch scratch;
  const auto cold = mapper.map(ctx, scratch);
  const auto before = EvalContext::cache_stats();
  const auto warm = mapper.map(ctx, scratch);
  const auto after = EvalContext::cache_stats();
  EXPECT_EQ(warm.core_to_slot, cold.core_to_slot);
  EXPECT_EQ(warm.eval.cost, cold.eval.cost);
  EXPECT_EQ(after.metrics_hits - before.metrics_hits,
            static_cast<std::uint64_t>(warm.evaluated_mappings -
                                       warm.pruned_mappings));
  EXPECT_EQ(after.metrics_misses, before.metrics_misses);
}

TEST(Mapper, WarmGreedyMapEvaluatesThroughTheMetricsCache) {
  expect_warm_map_only_hits(SearchKind::kGreedySwaps);
}

TEST(Mapper, WarmAnnealingMapEvaluatesThroughTheMetricsCache) {
  expect_warm_map_only_hits(SearchKind::kAnnealing);
}

void expect_materialized(const MappingResult& result, const CoreGraph& app) {
  EXPECT_EQ(result.eval.routes.size(), commodities_by_value(app).size());
  EXPECT_FALSE(result.eval.floorplan.blocks().empty());
}

TEST(Mapper, MaterializesTheWinnerWhetherOrNotTheSearchMoved) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.objective = Objective::kMinPower;
  MapperConfig no_swaps = config;
  no_swaps.swap_passes = 0;
  const auto start = Mapper(no_swaps).map(app, *mesh);
  const auto searched = Mapper(config).map(app, *mesh);
  ASSERT_NE(searched.core_to_slot, start.core_to_slot);  // the search moved
  expect_materialized(start, app);
  expect_materialized(searched, app);

  // No flows: no routes to materialize, but still a floorplan, on a mesh
  // and on one switch with no links at all.
  CoreGraph idle("idle2");
  idle.add_core("a", 2.0);
  idle.add_core("b", 2.0);
  topo::CustomTopology::Builder builder("one_switch");
  const graph::NodeId sw = builder.add_switch();
  builder.attach_core(sw);
  builder.attach_core(sw);
  const auto one_switch = builder.build();
  ASSERT_EQ(one_switch->switch_graph().num_edges(), 0);
  expect_materialized(Mapper().map(idle, *topo::make_mesh_for(2)), idle);
  expect_materialized(Mapper().map(idle, *one_switch), idle);
}

TEST(BetterThan, OrdersByFeasibilityThenCost) {
  Evaluation feasible_cheap;
  feasible_cheap.bandwidth_feasible = true;
  feasible_cheap.area_feasible = true;
  feasible_cheap.cost = 1.0;
  Evaluation feasible_pricey = feasible_cheap;
  feasible_pricey.cost = 2.0;
  Evaluation infeasible;
  infeasible.bandwidth_feasible = false;
  infeasible.area_feasible = true;
  infeasible.cost = 0.5;
  infeasible.max_link_load_mbps = 900.0;

  EXPECT_TRUE(better_than(feasible_cheap, feasible_pricey));
  EXPECT_FALSE(better_than(feasible_pricey, feasible_cheap));
  EXPECT_TRUE(better_than(feasible_pricey, infeasible));

  Evaluation less_overloaded = infeasible;
  less_overloaded.max_link_load_mbps = 600.0;
  EXPECT_TRUE(better_than(less_overloaded, infeasible));
}

TEST(Mapper, GreedyInitialPlacesHottestCoreOnBestSwitch) {
  // With swaps disabled the initial mapping shows through: the core with
  // maximum traffic must sit on a maximum-degree switch.
  MapperConfig config;
  config.swap_passes = 0;
  Mapper mapper(config);
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());

  int hottest = 0;
  for (int c = 1; c < app.num_cores(); ++c) {
    if (app.core_traffic_mbps(c) > app.core_traffic_mbps(hottest)) {
      hottest = c;
    }
  }
  const auto result = mapper.map(app, *mesh);
  const int slot = result.core_to_slot[static_cast<std::size_t>(hottest)];
  int max_degree = 0;
  for (graph::NodeId sw = 0; sw < mesh->num_switches(); ++sw) {
    max_degree = std::max(max_degree, mesh->switch_graph().degree(sw));
  }
  EXPECT_EQ(mesh->switch_graph().degree(mesh->ingress_switch(slot)),
            max_degree);
}

TEST(Objective, ToStringNames) {
  EXPECT_STREQ(to_string(Objective::kMinDelay), "min-delay");
  EXPECT_STREQ(to_string(Objective::kMinArea), "min-area");
  EXPECT_STREQ(to_string(Objective::kMinPower), "min-power");
}

}  // namespace
}  // namespace sunmap::mapping
