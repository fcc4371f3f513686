#include <gtest/gtest.h>

#include <limits>

#include "apps/apps.h"
#include "io/exploration_io.h"
#include "mapping/eval_context.h"
#include "select/explorer.h"
#include "topo/library.h"

namespace sunmap::select {
namespace {

constexpr mapping::Objective kSweepObjectives[] = {
    mapping::Objective::kMinDelay, mapping::Objective::kMinArea,
    mapping::Objective::kMinPower};

ExplorationRequest full_sweep(
    const mapping::CoreGraph& app,
    const std::vector<std::unique_ptr<topo::Topology>>& library) {
  ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.base.link_bandwidth_mbps = 500.0;
  request.objectives.assign(std::begin(kSweepObjectives),
                            std::end(kSweepObjectives));
  request.routings.assign(std::begin(route::kAllRoutingKinds),
                          std::end(route::kAllRoutingKinds));
  return request;
}

void expect_identical(const SelectionReport& batched,
                      const SelectionReport& naive, const std::string& label) {
  ASSERT_EQ(batched.candidates.size(), naive.candidates.size()) << label;
  EXPECT_EQ(batched.best_index, naive.best_index) << label;
  for (std::size_t t = 0; t < naive.candidates.size(); ++t) {
    const auto& b = batched.candidates[t].result;
    const auto& n = naive.candidates[t].result;
    EXPECT_EQ(b.core_to_slot, n.core_to_slot) << label;
    EXPECT_EQ(b.slot_to_core, n.slot_to_core) << label;
    EXPECT_EQ(b.evaluated_mappings, n.evaluated_mappings) << label;
    EXPECT_EQ(b.pruned_mappings, n.pruned_mappings) << label;
    // Bit-identical evaluations: exact double equality, no tolerance.
    EXPECT_EQ(b.eval.cost, n.eval.cost) << label;
    EXPECT_EQ(b.eval.avg_switch_hops, n.eval.avg_switch_hops) << label;
    EXPECT_EQ(b.eval.avg_path_latency_ns, n.eval.avg_path_latency_ns)
        << label;
    EXPECT_EQ(b.eval.design_area_mm2, n.eval.design_area_mm2) << label;
    EXPECT_EQ(b.eval.design_power_mw, n.eval.design_power_mw) << label;
    EXPECT_EQ(b.eval.max_link_load_mbps, n.eval.max_link_load_mbps) << label;
    EXPECT_EQ(b.eval.feasible(), n.eval.feasible()) << label;
  }
}

TEST(Explorer, SearchStrategyAndRestartAxesSweepBitIdentically) {
  // The ROADMAP follow-on axes: search strategy and restart count expand
  // the grid like any other axis and every point matches the per-config
  // selector run, sharing one context per topology.
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.base.annealing_iterations = 300;
  request.searches = {mapping::SearchKind::kGreedySwaps,
                      mapping::SearchKind::kRestartAnnealing};
  request.restart_counts = {2, 4};
  EXPECT_EQ(request.num_points(), 4u);

  const auto points = DesignSpaceExplorer::expand(request);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].config.search, mapping::SearchKind::kGreedySwaps);
  EXPECT_EQ(points[0].config.annealing_restarts, 2);
  EXPECT_EQ(points[1].config.annealing_restarts, 4);
  EXPECT_EQ(points[2].config.search,
            mapping::SearchKind::kRestartAnnealing);
  EXPECT_EQ(points[3].search_index, 1);
  EXPECT_EQ(points[3].restarts_index, 1);
  EXPECT_NE(points[3].label().find("restart-annealing-x4"),
            std::string::npos);

  const auto contexts_before = mapping::EvalContext::contexts_built();
  DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);
  EXPECT_EQ(mapping::EvalContext::contexts_built() - contexts_before,
            library.size());
  ASSERT_EQ(report.results.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    TopologySelector selector(points[p].config);
    expect_identical(report.results[p].selection,
                     selector.select(app, library),
                     report.results[p].point.label());
  }
}

TEST(Explorer, FloorplanAndSwapPassAxesSweepBitIdentically) {
  // The remaining ROADMAP sweep axes: floorplan options (engine + sizing
  // passes) and the greedy search's swap-pass schedule. Floorplan options
  // vary slowest (their move is the one that clears the floorplan cache and
  // sessions), swap passes sit just above the objective.
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  fplan::Floorplanner::Options sized;   // default: lp engine, 2 passes
  fplan::Floorplanner::Options rigid;
  rigid.sizing_passes = 0;
  request.floorplan_options = {sized, rigid};
  request.swap_passes = {1, 2};
  request.objectives = {mapping::Objective::kMinArea};
  EXPECT_EQ(request.num_points(), 4u);

  const auto points = DesignSpaceExplorer::expand(request);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].config.floorplan.sizing_passes, 2);
  EXPECT_EQ(points[0].config.swap_passes, 1);
  EXPECT_EQ(points[1].config.swap_passes, 2);
  EXPECT_EQ(points[2].config.floorplan.sizing_passes, 0);
  EXPECT_EQ(points[2].fplan_index, 1);
  EXPECT_EQ(points[3].swap_passes_index, 1);
  EXPECT_NE(points[1].label().find("/sp2"), std::string::npos);
  EXPECT_NE(points[2].label().find("/fp-lp-sz0"), std::string::npos);
  EXPECT_EQ(points[0].label().find("/fp-"), std::string::npos);

  const auto contexts_before = mapping::EvalContext::contexts_built();
  DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);
  EXPECT_EQ(mapping::EvalContext::contexts_built() - contexts_before,
            library.size());
  ASSERT_EQ(report.results.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    TopologySelector selector(points[p].config);
    expect_identical(report.results[p].selection,
                     selector.select(app, library),
                     report.results[p].point.label());
  }
  // Less sizing freedom can never shrink the best min-area design.
  const auto best_cost = [&](std::size_t p) {
    return report.results[p].selection.best()->result.eval.cost;
  };
  EXPECT_LE(best_cost(1), best_cost(3) + 1e-9);
}

TEST(Explorer, ExpandsGridObjectiveInnermostRoutingOutermost) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  auto request = full_sweep(app, library);
  request.link_bandwidths_mbps = {400.0, 500.0};
  EXPECT_EQ(request.num_points(), 24u);

  const auto points = DesignSpaceExplorer::expand(request);
  ASSERT_EQ(points.size(), 24u);
  // Objective varies fastest, then bandwidth, routing outermost.
  EXPECT_EQ(points[0].config.objective, mapping::Objective::kMinDelay);
  EXPECT_EQ(points[1].config.objective, mapping::Objective::kMinArea);
  EXPECT_EQ(points[2].config.objective, mapping::Objective::kMinPower);
  EXPECT_EQ(points[0].config.link_bandwidth_mbps, 400.0);
  EXPECT_EQ(points[3].config.link_bandwidth_mbps, 500.0);
  EXPECT_EQ(points[0].config.routing, route::RoutingKind::kDimensionOrdered);
  EXPECT_EQ(points[6].config.routing, route::RoutingKind::kMinPath);
  EXPECT_EQ(points[23].config.routing, route::RoutingKind::kSplitAll);
  EXPECT_EQ(points[23].config.objective, mapping::Objective::kMinPower);
  // Each objective run differs only in objective (run_sweep's shards).
  ASSERT_EQ(request.objective_run(), 3u);
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto& first = points[p - p % 3].config;
    auto config = points[p].config;
    config.objective = first.objective;
    EXPECT_EQ(config, first) << p;
  }
  // Empty axes fall back to the base config.
  ExplorationRequest single;
  single.app = &app;
  single.library = &library;
  single.base.objective = mapping::Objective::kMinPower;
  const auto one = DesignSpaceExplorer::expand(single);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].config.objective, mapping::Objective::kMinPower);
  EXPECT_EQ(single.objective_run(), 1u);
}

// The acceptance bar of the batch API: a 3-objective x 4-routing sweep over
// the full topology library returns results bit-identical to running
// TopologySelector::select once per configuration, while building each
// topology's evaluation context exactly once.
TEST(Explorer, FullSweepBitIdenticalToPerConfigSelectBuildsContextsOnce) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = full_sweep(app, library);
  const auto points = DesignSpaceExplorer::expand(request);
  ASSERT_EQ(points.size(), 12u);

  const auto contexts_before = mapping::EvalContext::contexts_built();
  DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);
  const auto contexts_built =
      mapping::EvalContext::contexts_built() - contexts_before;
  // One context per (app, topology) pair for the entire 12-point sweep.
  EXPECT_EQ(contexts_built, library.size());

  ASSERT_EQ(report.results.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    TopologySelector selector(points[p].config);
    const auto naive = selector.select(app, library);
    expect_identical(report.results[p].selection, naive,
                     report.results[p].point.label());
  }
}

TEST(Explorer, ParallelSweepMatchesSequential) {
  const auto app = apps::mwd();
  const auto library = topo::standard_library(app.num_cores());
  ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.objectives = {mapping::Objective::kMinDelay,
                        mapping::Objective::kMinArea};
  request.routings = {route::RoutingKind::kDimensionOrdered,
                      route::RoutingKind::kMinPath};

  DesignSpaceExplorer explorer;
  const auto sequential = explorer.explore(request);
  request.num_threads = 4;
  const auto parallel = explorer.explore(request);

  ASSERT_EQ(parallel.results.size(), sequential.results.size());
  for (std::size_t p = 0; p < sequential.results.size(); ++p) {
    expect_identical(parallel.results[p].selection,
                     sequential.results[p].selection,
                     sequential.results[p].point.label());
  }
  ASSERT_EQ(parallel.winners.size(), sequential.winners.size());
  for (std::size_t w = 0; w < sequential.winners.size(); ++w) {
    EXPECT_EQ(parallel.winners[w].point_index,
              sequential.winners[w].point_index);
    EXPECT_EQ(parallel.winners[w].topology_index,
              sequential.winners[w].topology_index);
  }
}

TEST(Explorer, WinnersAreGridMinimaPerObjective) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  auto request = full_sweep(app, library);
  request.routings = {route::RoutingKind::kMinPath,
                      route::RoutingKind::kSplitMin};
  DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);

  ASSERT_EQ(report.winners.size(), 3u);
  for (const auto& best : report.winners) {
    ASSERT_TRUE(best.found());
    const auto* candidate = report.winner(best.objective);
    ASSERT_NE(candidate, nullptr);
    ASSERT_TRUE(candidate->feasible());
    for (const auto& result : report.results) {
      if (result.point.config.objective != best.objective) continue;
      for (const auto& other : result.selection.candidates) {
        if (!other.feasible()) continue;
        EXPECT_LE(candidate->result.eval.cost, other.result.eval.cost);
      }
    }
  }
  // An objective that was not swept has no winner.
  EXPECT_EQ(report.winner(mapping::Objective::kWeighted), nullptr);
}

TEST(Explorer, AllInfeasibleLibraryYieldsNullWinnersAndEmptyPareto) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  auto request = full_sweep(app, library);
  request.base.link_bandwidth_mbps = 1.0;  // nothing fits
  request.link_bandwidths_mbps = {1.0};
  DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);

  for (const auto& result : report.results) {
    EXPECT_EQ(result.selection.best_index, -1);
    EXPECT_EQ(result.selection.best(), nullptr);
  }
  ASSERT_EQ(report.winners.size(), 3u);
  for (const auto& best : report.winners) {
    EXPECT_FALSE(best.found());
    EXPECT_EQ(report.winner(best.objective), nullptr);
  }
  EXPECT_TRUE(report.pareto.empty());
}

TEST(Explorer, ParetoFrontierCoversFeasibleCells) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.objectives = {mapping::Objective::kMinArea,
                        mapping::Objective::kMinPower};
  request.routings = {route::RoutingKind::kMinPath};
  DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);

  ASSERT_FALSE(report.pareto.empty());
  // Frontier is sorted by area and strictly decreasing in power, and no
  // feasible cell dominates a frontier point.
  for (std::size_t i = 1; i < report.pareto.size(); ++i) {
    EXPECT_GT(report.pareto[i].area_mm2, report.pareto[i - 1].area_mm2);
    EXPECT_LT(report.pareto[i].power_mw, report.pareto[i - 1].power_mw);
  }
  for (const auto& point : report.pareto) {
    for (const auto& result : report.results) {
      for (const auto& candidate : result.selection.candidates) {
        if (!candidate.feasible()) continue;
        const auto& eval = candidate.result.eval;
        EXPECT_FALSE(eval.design_area_mm2 < point.area_mm2 - 1e-12 &&
                     eval.design_power_mw < point.power_mw - 1e-12);
      }
    }
  }
}

TEST(Explorer, OnePointRequestsOnOnePoolMatchWholeGridExplore) {
  // The contract a sweep worker rests on: exploring the grid one point at a
  // time, each as a one-point request (base = the point's config, no axes)
  // on one shared context pool, builds each context once, rebinds it per
  // point, and returns every cell of the whole-grid explore() bit for bit,
  // at any thread count.
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = full_sweep(app, library);
  DesignSpaceExplorer explorer;
  const auto whole = explorer.explore(request);
  const auto points = DesignSpaceExplorer::expand(request);
  ASSERT_EQ(whole.results.size(), points.size());

  for (const int threads : {1, 3}) {
    ExplorerContextPool pool;
    ExplorationRequest one_point;
    one_point.app = &app;
    one_point.library = &library;
    one_point.num_threads = threads;
    one_point.context_pool = &pool;
    const auto contexts_before = mapping::EvalContext::contexts_built();
    for (std::size_t p = 0; p < points.size(); ++p) {
      one_point.base = points[p].config;
      const auto report = explorer.explore(one_point);
      ASSERT_EQ(report.results.size(), 1u);
      expect_identical(report.results.front().selection,
                       whole.results[p].selection,
                       points[p].label() + " threads " +
                           std::to_string(threads));
    }
    EXPECT_EQ(mapping::EvalContext::contexts_built() - contexts_before,
              library.size());
  }
}

TEST(Explorer, ValidatesRequest) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  DesignSpaceExplorer explorer;

  ExplorationRequest no_app;
  no_app.library = &library;
  EXPECT_THROW(explorer.explore(no_app), std::invalid_argument);

  ExplorationRequest no_library;
  no_library.app = &app;
  EXPECT_THROW(explorer.explore(no_library), std::invalid_argument);

  // Both ends of [1, kMaxThreads]; neither starts a thread.
  for (const int threads : {0, kMaxThreads + 1}) {
    ExplorationRequest bad_threads;
    bad_threads.app = &app;
    bad_threads.library = &library;
    bad_threads.num_threads = threads;
    EXPECT_THROW(explorer.explore(bad_threads), std::invalid_argument);
  }

  // Invalid axis values surface through MapperConfig::validate.
  ExplorationRequest bad_bandwidth;
  bad_bandwidth.app = &app;
  bad_bandwidth.library = &library;
  bad_bandwidth.link_bandwidths_mbps = {500.0, -1.0};
  EXPECT_THROW(explorer.explore(bad_bandwidth), std::invalid_argument);
}

TEST(Explorer, SelectorIsSinglePointWrapper) {
  const auto app = apps::mwd();
  const auto library = topo::standard_library(app.num_cores());
  mapping::MapperConfig config;
  config.routing = route::RoutingKind::kDimensionOrdered;

  TopologySelector selector(config);
  const auto via_selector = selector.select(app, library);

  ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.base = config;
  DesignSpaceExplorer explorer;
  const auto via_explorer = explorer.explore(request);
  ASSERT_EQ(via_explorer.results.size(), 1u);
  expect_identical(via_explorer.results.front().selection, via_selector,
                   "single-point");
}

TEST(ExplorationIo, CsvHasOneRowPerCell) {
  const auto app = apps::mwd();
  const auto library = topo::standard_library(app.num_cores());
  ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.objectives = {mapping::Objective::kMinDelay,
                        mapping::Objective::kMinArea};
  DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);

  const auto csv = io::exploration_report_csv(report);
  std::size_t rows = 0;
  for (char c : csv) rows += c == '\n' ? 1 : 0;
  EXPECT_EQ(rows, 1 + report.results.size() * library.size());
  EXPECT_NE(csv.find("point,shard,worker,routing,objective"),
            std::string::npos);
  EXPECT_NE(csv.find("swap_passes,fplan_engine,fplan_sizing_passes"),
            std::string::npos);
  // In-process points carry no distributed provenance: empty cells.
  EXPECT_NE(csv.find("0,,,"), std::string::npos);
  EXPECT_NE(csv.find(",lp,"), std::string::npos);
  EXPECT_NE(csv.find("min-delay"), std::string::npos);
  EXPECT_NE(csv.find("mesh"), std::string::npos);
}

TEST(ExplorationIo, JsonContainsPointsWinnersPareto) {
  const auto app = apps::mwd();
  const auto library = topo::standard_library(app.num_cores());
  ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.objectives = {mapping::Objective::kMinDelay};
  DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);

  const auto json = io::exploration_report_json(report);
  EXPECT_NE(json.find("\"points\""), std::string::npos);
  EXPECT_NE(json.find("\"winners\""), std::string::npos);
  EXPECT_NE(json.find("\"pareto\""), std::string::npos);
  EXPECT_NE(json.find("\"objective\": \"min-delay\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\": null"), std::string::npos);
  EXPECT_NE(json.find("\"worker\": null"), std::string::npos);
  EXPECT_NE(json.find("\"swap_passes\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"fplan_engine\": \"lp\""), std::string::npos);
  EXPECT_NE(json.find("\"fplan_sizing_passes\": 2"), std::string::npos);
  // An unconstrained area cap must be emitted as null, not infinity.
  EXPECT_NE(json.find("\"max_area_mm2\": null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace sunmap::select
