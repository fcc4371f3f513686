// Routing-session tests. The RoutingSession must be bit-identical to the
// canonical routing loop (run inline here, from fresh routes and loads)
// after any mix of speculative solves, pops, commits and nested frames; a
// same-endpoint solve must run no Dijkstra; and a throwing solve must leave
// no half-written state. The DeltaTxn protocol built on top of it must
// leave every evaluation exactly where the from-scratch Mapper::evaluate
// lands, over randomized accept/reject walks on mesh/torus/butterfly
// topologies under all four routing kinds.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "mapping/delta_txn.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "route/routing.h"
#include "route/routing_session.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::route {
namespace {

/// A small commodity list in canonical (decreasing-bandwidth) order over the
/// first `n` slots of a topology, with a deterministic endpoint pattern.
struct Workload {
  std::vector<double> demands;
  std::vector<CommodityEndpoints> endpoints;
};

Workload make_workload(const topo::Topology& topology, int commodities) {
  Workload w;
  const int slots = topology.num_slots();
  for (int k = 0; k < commodities; ++k) {
    w.demands.push_back(400.0 - 17.0 * k);
    const topo::SlotId src = (3 * k) % slots;
    topo::SlotId dst = (3 * k + 5) % slots;
    if (dst == src) dst = (dst + 1) % slots;
    w.endpoints.push_back(CommodityEndpoints{src, dst});
  }
  return w;
}

/// The canonical loop, independent of the session: route every commodity
/// in order on a cleared map, then rip up and re-route each one per pass.
void reference_solve(const RoutingEngine& engine,
                     const std::vector<double>& demands,
                     const std::vector<CommodityEndpoints>& endpoints,
                     int reroute_passes, LoadMap& loads,
                     std::vector<RouteSet>& routes) {
  loads.clear();
  routes.assign(demands.size(), RouteSet{});
  for (std::size_t k = 0; k < demands.size(); ++k) {
    engine.route(endpoints[k].src, endpoints[k].dst, demands[k], loads,
                 routes[k]);
    loads.add_route(routes[k], demands[k]);
  }
  for (int pass = 0; pass < reroute_passes; ++pass) {
    for (std::size_t k = 0; k < demands.size(); ++k) {
      loads.remove_route(routes[k], demands[k]);
      engine.route(endpoints[k].src, endpoints[k].dst, demands[k], loads,
                   routes[k]);
      loads.add_route(routes[k], demands[k]);
    }
  }
}

void reference_solve(const RoutingEngine& engine, const Workload& w,
                     const std::vector<CommodityEndpoints>& endpoints,
                     LoadMap& loads, std::vector<RouteSet>& routes) {
  reference_solve(engine, w.demands, endpoints, /*reroute_passes=*/2, loads,
                  routes);
}

void expect_same_state(const RoutingSession& session, const LoadMap& loads,
                       const LoadMap& expected_loads,
                       const std::vector<RouteSet>& expected_routes) {
  for (std::size_t e = 0; e < expected_loads.values().size(); ++e) {
    EXPECT_EQ(loads.values()[e], expected_loads.values()[e]) << "edge " << e;
  }
  for (int k = 0; k < session.num_commodities(); ++k) {
    EXPECT_TRUE(same_routes(session.route(k),
                            expected_routes[static_cast<std::size_t>(k)]))
        << "commodity " << k;
  }
}

TEST(RoutingSession, SolveBitIdenticalToCanonicalLoop) {
  for (const RoutingKind kind : {RoutingKind::kMinPath,
                                 RoutingKind::kSplitAll}) {
    const auto mesh = topo::make_mesh_for(16);
    RoutingEngine engine(*mesh, kind);
    const auto w = make_workload(*mesh, 10);
    RoutingSession session;
    session.reset(w.demands, /*reroute_passes=*/2);
    const int num_edges = mesh->switch_graph().num_edges();
    LoadMap loads(num_edges);
    session.solve(engine, w.endpoints, loads, /*speculative=*/false);

    // A sequence of single-endpoint moves, each checked bitwise against the
    // canonical loop run on the same assignment.
    auto endpoints = w.endpoints;
    util::Prng prng(7);
    for (int step = 0; step < 12; ++step) {
      const auto idx =
          static_cast<std::size_t>(prng.next_int(0, 9));
      endpoints[idx].dst =
          (endpoints[idx].dst + 1 + prng.next_int(0, mesh->num_slots() - 3)) %
          mesh->num_slots();
      if (endpoints[idx].dst == endpoints[idx].src) {
        endpoints[idx].dst = (endpoints[idx].dst + 1) % mesh->num_slots();
      }
      session.solve(engine, endpoints, loads, /*speculative=*/false);
      LoadMap expected_loads(num_edges);
      std::vector<RouteSet> expected_routes;
      reference_solve(engine, w, endpoints, expected_loads, expected_routes);
      SCOPED_TRACE(std::string(to_string(kind)) + " step " +
                   std::to_string(step));
      expect_same_state(session, loads, expected_loads, expected_routes);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(RoutingSession, SameEndpointSolveRunsNoDijkstra) {
  for (const RoutingKind kind : {RoutingKind::kMinPath,
                                 RoutingKind::kSplitAll}) {
    SCOPED_TRACE(to_string(kind));
    const auto mesh = topo::make_mesh_for(16);
    RoutingEngine engine(*mesh, kind);
    const auto w = make_workload(*mesh, 10);
    RoutingSession session;
    session.reset(w.demands, /*reroute_passes=*/2);
    const int num_edges = mesh->switch_graph().num_edges();
    LoadMap loads(num_edges);
    session.solve(engine, w.endpoints, loads, /*speculative=*/false);
    LoadMap expected(num_edges);
    std::vector<RouteSet> expected_routes;
    reference_solve(engine, w, w.endpoints, expected, expected_routes);

    // Destructive: the stored loads and routes come back, and no commodity
    // is routed.
    const auto before = session.stats();
    LoadMap returned(num_edges);
    session.solve(engine, w.endpoints, returned, /*speculative=*/false);
    EXPECT_EQ(session.stats().rerouted, before.rerouted);
    EXPECT_EQ(session.stats().full_solves, before.full_solves);
    EXPECT_EQ(session.stats().snapshot_solves, before.snapshot_solves + 1);
    expect_same_state(session, returned, expected, expected_routes);

    // Speculative: the same return under a frame, and popping that frame
    // changes nothing.
    session.solve(engine, w.endpoints, returned, /*speculative=*/true);
    EXPECT_EQ(session.open_frames(), 1);
    EXPECT_EQ(session.stats().rerouted, before.rerouted);
    EXPECT_EQ(session.stats().snapshot_solves, before.snapshot_solves + 2);
    expect_same_state(session, returned, expected, expected_routes);
    session.pop();
    EXPECT_EQ(session.open_frames(), 0);
    EXPECT_TRUE(session.valid());
    LoadMap after_pop(num_edges);
    session.solve(engine, w.endpoints, after_pop, /*speculative=*/false);
    EXPECT_EQ(session.stats().rerouted, before.rerouted);
    EXPECT_EQ(session.stats().snapshot_solves, before.snapshot_solves + 3);
    expect_same_state(session, after_pop, expected, expected_routes);
  }
}

TEST(RoutingSession, SpeculativePopRestoresDisplacedStateVerbatim) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  const auto w = make_workload(*mesh, 10);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  LoadMap base_loads(num_edges);
  std::vector<RouteSet> base_routes;
  reference_solve(engine, w, w.endpoints, base_loads, base_routes);

  auto moved = w.endpoints;
  std::swap(moved[2].dst, moved[5].dst);
  {
    // The speculative result itself must match the canonical loop.
    session.solve(engine, moved, loads, /*speculative=*/true);
    EXPECT_EQ(session.open_frames(), 1);
    LoadMap expected(num_edges);
    std::vector<RouteSet> expected_routes;
    reference_solve(engine, w, moved, expected, expected_routes);
    expect_same_state(session, loads, expected, expected_routes);
  }
  session.pop();
  EXPECT_EQ(session.open_frames(), 0);
  // After the pop, the base endpoints return the restored state without a
  // single Dijkstra, bit-identically to the base.
  const auto rerouted = session.stats().rerouted;
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  EXPECT_EQ(session.stats().rerouted, rerouted);
  expect_same_state(session, loads, base_loads, base_routes);
}

TEST(RoutingSession, NestedFramesUnwindInOrder) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 8);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);

  auto level1 = w.endpoints;
  level1[0].dst = (level1[0].dst + 3) % mesh->num_slots();
  if (level1[0].dst == level1[0].src) {
    level1[0].dst = (level1[0].dst + 1) % mesh->num_slots();
  }
  auto level2 = level1;
  level2[7].src = (level2[7].src + 2) % mesh->num_slots();
  if (level2[7].src == level2[7].dst) {
    level2[7].src = (level2[7].src + 1) % mesh->num_slots();
  }

  session.solve(engine, level1, loads, /*speculative=*/true);
  session.solve(engine, level2, loads, /*speculative=*/true);
  EXPECT_EQ(session.open_frames(), 2);

  // Unwind to level 1: a solve of its endpoints (speculatively — the outer
  // frame is still open) must land exactly on the level-1 state.
  session.pop();
  EXPECT_EQ(session.open_frames(), 1);
  {
    session.solve(engine, level1, loads, /*speculative=*/true);
    LoadMap expected(num_edges);
    std::vector<RouteSet> expected_routes;
    reference_solve(engine, w, level1, expected, expected_routes);
    expect_same_state(session, loads, expected, expected_routes);
    session.pop();
  }
  // Unwind to the base and verify it destructively.
  session.pop();
  EXPECT_EQ(session.open_frames(), 0);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  LoadMap expected(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, w.endpoints, expected, expected_routes);
  expect_same_state(session, loads, expected, expected_routes);
}

TEST(RoutingSession, CommitKeepsSpeculatedState) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  const auto w = make_workload(*mesh, 10);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  auto moved = w.endpoints;
  moved[4].dst = (moved[4].dst + 7) % mesh->num_slots();
  if (moved[4].dst == moved[4].src) {
    moved[4].dst = (moved[4].dst + 1) % mesh->num_slots();
  }
  session.solve(engine, moved, loads, /*speculative=*/true);
  session.commit();
  EXPECT_EQ(session.open_frames(), 0);
  // The committed state is now the base: solving it again is a return.
  const auto snapshots = session.stats().snapshot_solves;
  session.solve(engine, moved, loads, /*speculative=*/false);
  EXPECT_EQ(session.stats().snapshot_solves, snapshots + 1);
  LoadMap expected(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, moved, expected, expected_routes);
  expect_same_state(session, loads, expected, expected_routes);
}

TEST(RoutingSession, MovedEndpointRunsTheWholeLoop) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  const auto w = make_workload(*mesh, 8);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);

  // One moved commodity re-routes every commodity in every pass.
  auto moved = w.endpoints;
  moved[3].dst = (moved[3].dst + 4) % mesh->num_slots();
  if (moved[3].dst == moved[3].src) {
    moved[3].dst = (moved[3].dst + 1) % mesh->num_slots();
  }
  const auto before = session.stats();
  session.solve(engine, moved, loads, /*speculative=*/true);
  EXPECT_EQ(session.stats().full_solves, before.full_solves + 1);
  EXPECT_EQ(session.stats().rerouted, before.rerouted + 3 * 8);
  LoadMap expected(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, moved, expected, expected_routes);
  expect_same_state(session, loads, expected, expected_routes);
  session.pop();
}

TEST(RoutingSession, ProtocolMisuseThrows) {
  const auto mesh = topo::make_mesh_for(9);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  const auto w = make_workload(*mesh, 5);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/1);
  LoadMap loads(mesh->switch_graph().num_edges());

  EXPECT_THROW(session.pop(), std::logic_error);
  std::vector<CommodityEndpoints> short_list(3);
  EXPECT_THROW(
      session.solve(engine, short_list, loads, /*speculative=*/false),
      std::invalid_argument);

  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  session.solve(engine, w.endpoints, loads, /*speculative=*/true);
  // A destructive solve under an open frame would orphan the frame.
  EXPECT_THROW(
      session.solve(engine, w.endpoints, loads, /*speculative=*/false),
      std::logic_error);
  session.pop();
  EXPECT_THROW(session.pop(), std::logic_error);
}

TEST(RoutingSession, SpeculationOnInvalidBasePopsToInvalid) {
  const auto mesh = topo::make_mesh_for(9);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll);
  const auto w = make_workload(*mesh, 5);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/1);
  LoadMap loads(mesh->switch_graph().num_edges());
  EXPECT_FALSE(session.valid());
  // First solve is speculative (a txn opened before any base solve): the
  // pop restores the invalid state, and the next solve routes from
  // scratch.
  session.solve(engine, w.endpoints, loads, /*speculative=*/true);
  EXPECT_TRUE(session.valid());
  session.pop();
  EXPECT_FALSE(session.valid());
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  LoadMap expected(mesh->switch_graph().num_edges());
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w.demands, w.endpoints, /*reroute_passes=*/1,
                  expected, expected_routes);
  expect_same_state(session, loads, expected, expected_routes);
}

TEST(RoutingSession, ThrowingSolveLeavesNoHalfWrittenState) {
  // On a 2x2 mesh an infinite first demand saturates its link; a second
  // commodity with the same endpoints then has no admitted path, so its
  // route throws after the first commodity's route was written.
  const auto mesh = topo::make_mesh_for(4);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  const std::vector<double> demands = {
      std::numeric_limits<double>::infinity(), 1.0};
  const std::vector<CommodityEndpoints> base = {{0, 1}, {2, 3}};
  const std::vector<CommodityEndpoints> doomed = {{2, 3}, {2, 3}};
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap expected(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, demands, base, /*reroute_passes=*/0, expected,
                  expected_routes);

  {
    SCOPED_TRACE("destructive");
    RoutingSession session;
    session.reset(demands, /*reroute_passes=*/0);
    LoadMap loads(num_edges);
    session.solve(engine, base, loads, /*speculative=*/false);
    EXPECT_THROW(session.solve(engine, doomed, loads, /*speculative=*/false),
                 std::logic_error);
    EXPECT_FALSE(session.valid());
    // The old endpoints re-route from scratch instead of returning a
    // state whose first route belongs to the failed solve.
    const auto rerouted = session.stats().rerouted;
    session.solve(engine, base, loads, /*speculative=*/false);
    EXPECT_EQ(session.stats().rerouted, rerouted + 2);
    expect_same_state(session, loads, expected, expected_routes);
  }
  {
    SCOPED_TRACE("speculative");
    RoutingSession session;
    session.reset(demands, /*reroute_passes=*/0);
    LoadMap loads(num_edges);
    session.solve(engine, base, loads, /*speculative=*/false);
    EXPECT_THROW(session.solve(engine, doomed, loads, /*speculative=*/true),
                 std::logic_error);
    EXPECT_FALSE(session.valid());
    EXPECT_EQ(session.open_frames(), 1);
    session.pop();
    EXPECT_TRUE(session.valid());
    const auto rerouted = session.stats().rerouted;
    session.solve(engine, base, loads, /*speculative=*/false);
    EXPECT_EQ(session.stats().rerouted, rerouted);
    expect_same_state(session, loads, expected, expected_routes);
  }
}

}  // namespace
}  // namespace sunmap::route

namespace sunmap::mapping {
namespace {

void expect_same_metrics(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.avg_switch_hops, b.avg_switch_hops);
  EXPECT_EQ(a.avg_path_latency_ns, b.avg_path_latency_ns);
  EXPECT_EQ(a.design_area_mm2, b.design_area_mm2);
  EXPECT_EQ(a.design_power_mw, b.design_power_mw);
  EXPECT_EQ(a.max_link_load_mbps, b.max_link_load_mbps);
  EXPECT_EQ(a.bandwidth_feasible, b.bandwidth_feasible);
  EXPECT_EQ(a.area_feasible, b.area_feasible);
}

std::vector<int> inverse_of(const std::vector<int>& core_to_slot,
                            int num_slots) {
  std::vector<int> slot_to_core(static_cast<std::size_t>(num_slots), -1);
  for (std::size_t c = 0; c < core_to_slot.size(); ++c) {
    slot_to_core[static_cast<std::size_t>(core_to_slot[c])] =
        static_cast<int>(c);
  }
  return slot_to_core;
}

/// Randomized accept/reject walk over single-swap transactions: every
/// speculative evaluation is checked bitwise against Mapper::evaluate,
/// which routes, floorplans and evaluates faults from scratch — including
/// evaluations right after rollbacks, where a stale routing frame would
/// show.
void run_routing_txn_walk(const CoreGraph& app,
                          const topo::Topology& topology, MapperConfig config,
                          int steps, std::uint64_t seed) {
  Mapper mapper(config);
  const EvalContext ctx(app, topology, config, mapper.library());

  std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    mapping[static_cast<std::size_t>(c)] = c;
  }
  auto inverse = inverse_of(mapping, topology.num_slots());

  EvalScratch scratch;
  DeltaTxn txn(ctx, scratch, mapping, inverse);
  util::Prng prng(seed);
  const int slots = topology.num_slots();
  for (int step = 0; step < steps; ++step) {
    const int a = prng.next_int(0, slots - 1);
    int b = prng.next_int(0, slots - 2);
    if (b >= a) ++b;
    txn.begin_swap(a, b);
    const auto eval = txn.evaluate();
    {
      SCOPED_TRACE(topology.name() + " step " + std::to_string(step));
      expect_same_metrics(eval, mapper.evaluate(app, topology, mapping));
    }
    if (prng.chance(0.5)) {
      txn.commit();
    } else {
      txn.rollback();
      EXPECT_EQ(inverse, inverse_of(mapping, topology.num_slots()));
      const auto back = txn.evaluate();
      SCOPED_TRACE(topology.name() + " rollback " + std::to_string(step));
      expect_same_metrics(back, mapper.evaluate(app, topology, mapping));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void run_walk_all_kinds(const topo::Topology& topology, int steps,
                        std::uint64_t seed) {
  const auto app = apps::vopd();
  for (route::RoutingKind kind : route::kAllRoutingKinds) {
    MapperConfig config;
    config.routing = kind;
    SCOPED_TRACE(route::to_string(kind));
    run_routing_txn_walk(app, topology, config, steps, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RoutingTxnWalk, AllKindsOnMesh) {
  const auto mesh = topo::make_mesh_for(16);  // 12 cores, 4 empty slots
  run_walk_all_kinds(*mesh, 20, 61);
}

TEST(RoutingTxnWalk, AllKindsOnTorus) {
  const auto torus = topo::make_torus_for(apps::vopd().num_cores());
  run_walk_all_kinds(*torus, 20, 62);
}

TEST(RoutingTxnWalk, AllKindsOnButterfly) {
  const auto butterfly = topo::make_butterfly_for(apps::vopd().num_cores());
  run_walk_all_kinds(*butterfly, 20, 63);
}

TEST(RoutingTxnWalk, MaterializedRoutesMatchFromScratch) {
  // Materialized evaluations copy the session's route sets out; those must
  // be the exact routes Mapper::evaluate computes.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.routing = route::RoutingKind::kMinPath;
  Mapper mapper(config);
  const EvalContext ctx(app, *mesh, config, mapper.library());

  std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    mapping[static_cast<std::size_t>(c)] = c;
  }
  auto inverse = inverse_of(mapping, mesh->num_slots());
  EvalScratch scratch;
  DeltaTxn txn(ctx, scratch, mapping, inverse);
  util::Prng prng(77);
  for (int step = 0; step < 10; ++step) {
    const int a = prng.next_int(0, mesh->num_slots() - 1);
    int b = prng.next_int(0, mesh->num_slots() - 2);
    if (b >= a) ++b;
    txn.begin_swap(a, b);
    const auto eval = ctx.evaluate(mapping, scratch, /*materialize=*/true);
    const auto expected = mapper.evaluate(app, *mesh, mapping);
    ASSERT_EQ(eval.routes.size(), expected.routes.size());
    for (std::size_t k = 0; k < eval.routes.size(); ++k) {
      EXPECT_TRUE(route::same_routes(eval.routes[k], expected.routes[k]))
          << "commodity " << k << " step " << step;
    }
    expect_same_metrics(eval, expected);
    if (prng.chance(0.5)) {
      txn.commit();
    } else {
      txn.rollback();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The full search stack on vopd's 16-slot mesh, pinned: the winner,
/// its cost and the search's work counts, which the session may not move,
/// and the winner's evaluation against Mapper::evaluate.
void expect_search_result(SearchKind kind, route::RoutingKind routing,
                          double cost, int evaluated, int pruned) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.search = kind;
  config.routing = routing;
  config.annealing_iterations = 300;
  const Mapper mapper(config);
  const MappingResult result = mapper.map(app, *mesh);
  EXPECT_EQ(result.core_to_slot,
            (std::vector<int>{7, 6, 10, 9, 13, 8, 4, 5, 0, 2, 1, 3}));
  EXPECT_EQ(result.eval.cost, cost);
  EXPECT_EQ(result.evaluated_mappings, evaluated);
  EXPECT_EQ(result.pruned_mappings, pruned);
  const auto expected = mapper.evaluate(app, *mesh, result.core_to_slot);
  expect_same_metrics(result.eval, expected);
}

TEST(TransactionalRoutingSearch, GreedyPinnedUnderMinPath) {
  expect_search_result(SearchKind::kGreedySwaps, route::RoutingKind::kMinPath,
                       2.09401955146636, 115, 114);
}

TEST(TransactionalRoutingSearch, AnnealingPinnedUnderMinPath) {
  expect_search_result(SearchKind::kAnnealing, route::RoutingKind::kMinPath,
                       2.09401955146636, 281, 0);
}

TEST(TransactionalRoutingSearch, AnnealingPinnedUnderSplitAll) {
  expect_search_result(SearchKind::kAnnealing, route::RoutingKind::kSplitAll,
                       2.3989361702127661, 285, 0);
}

TEST(TransactionalRoutingSearch, RestartAnnealingPinnedUnderSplitAll) {
  expect_search_result(SearchKind::kRestartAnnealing,
                       route::RoutingKind::kSplitAll, 2.3989361702127661, 287,
                       0);
}

}  // namespace
}  // namespace sunmap::mapping
