// Transactional incremental-routing tests. The RoutingSession must be
// bit-identical to the from-scratch canonical routing loop after any mix of
// speculative solves, pops, commits and nested frames — and the DeltaTxn
// protocol built on top of it (including batched multi-swap moves) must
// leave every evaluation exactly where a from-scratch stack would, over
// randomized accept/reject walks on mesh/torus/butterfly topologies under
// all four routing kinds.

#include <gtest/gtest.h>

#include <cstdint>
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

/// From-scratch reference: a throwaway session with no cached trace routes
/// the canonical loop directly.
void reference_solve(const RoutingEngine& engine, const Workload& w,
                     const std::vector<CommodityEndpoints>& endpoints,
                     LoadMap& loads, std::vector<RouteSet>& routes) {
  RoutingSession fresh;
  fresh.reset(w.demands, /*reroute_passes=*/2);
  fresh.solve(engine, endpoints, loads, /*speculative=*/false);
  routes.clear();
  for (int k = 0; k < fresh.num_commodities(); ++k) {
    routes.push_back(fresh.route(k));
  }
  EXPECT_EQ(fresh.stats().full_solves, 1);
  EXPECT_EQ(fresh.stats().incremental_solves, 0);
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

TEST(RoutingSession, IncrementalSolveBitIdenticalToFromScratch) {
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

    // A sequence of single-endpoint moves, each checked bitwise against a
    // from-scratch solve of the same assignment.
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
    // One commodity moving at a time keeps the walk under the dirty
    // fallback, so the incremental path was actually exercised.
    EXPECT_GT(session.stats().incremental_solves, 0);
    EXPECT_GT(session.stats().reused, 0);
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
    // The speculative result itself must match a from-scratch solve.
    session.solve(engine, moved, loads, /*speculative=*/true);
    EXPECT_EQ(session.open_frames(), 1);
    LoadMap expected(num_edges);
    std::vector<RouteSet> expected_routes;
    reference_solve(engine, w, moved, expected, expected_routes);
    expect_same_state(session, loads, expected, expected_routes);
  }
  session.pop();
  EXPECT_EQ(session.open_frames(), 0);
  // After the pop, replaying the base endpoints must reuse the restored
  // trace and land bit-identically on the base state.
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
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

  // Unwind to level 1: a replay of its endpoints (speculatively — the outer
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

TEST(RoutingSession, CommitKeepsSpeculatedTrace) {
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
  // The committed trace is now the base: replaying it must be pure reuse.
  const auto reused_before = session.stats().reused;
  session.solve(engine, moved, loads, /*speculative=*/false);
  EXPECT_GT(session.stats().reused, reused_before);
  LoadMap expected(num_edges);
  std::vector<RouteSet> expected_routes;
  reference_solve(engine, w, moved, expected, expected_routes);
  expect_same_state(session, loads, expected, expected_routes);
}

TEST(RoutingSession, DirtyFallbackStillBitIdentical) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  const auto w = make_workload(*mesh, 8);
  RoutingSession session;
  session.reset(w.demands, /*reroute_passes=*/2);
  const int num_edges = mesh->switch_graph().num_edges();
  LoadMap loads(num_edges);
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);

  // Move more than a quarter of the commodities: the session must abandon
  // the replay (full_solves ticks) and still match from scratch.
  auto moved = w.endpoints;
  for (int k = 0; k < 4; ++k) {
    moved[static_cast<std::size_t>(k)].dst =
        (moved[static_cast<std::size_t>(k)].dst + 4) % mesh->num_slots();
    if (moved[static_cast<std::size_t>(k)].dst ==
        moved[static_cast<std::size_t>(k)].src) {
      moved[static_cast<std::size_t>(k)].dst =
          (moved[static_cast<std::size_t>(k)].dst + 1) % mesh->num_slots();
    }
  }
  const auto full_before = session.stats().full_solves;
  session.solve(engine, moved, loads, /*speculative=*/true);
  EXPECT_EQ(session.stats().full_solves, full_before + 1);
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
  // A destructive solve under an open frame would corrupt the journal.
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
  // First solve is speculative (a txn opened before any base solve): there
  // is no trace to restore, so the pop leaves the session invalid and the
  // next solve simply re-routes from scratch.
  session.solve(engine, w.endpoints, loads, /*speculative=*/true);
  EXPECT_TRUE(session.valid());
  session.pop();
  EXPECT_FALSE(session.valid());
  session.solve(engine, w.endpoints, loads, /*speculative=*/false);
  LoadMap expected(mesh->switch_graph().num_edges());
  std::vector<RouteSet> expected_routes;
  {
    RoutingSession fresh;
    fresh.reset(w.demands, /*reroute_passes=*/1);
    fresh.solve(engine, w.endpoints, expected, /*speculative=*/false);
    for (int k = 0; k < fresh.num_commodities(); ++k) {
      expected_routes.push_back(fresh.route(k));
    }
  }
  expect_same_state(session, loads, expected, expected_routes);
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

/// Randomized accept/reject walk over batched multi-swap transactions:
/// every speculative evaluation is checked bitwise against a fully
/// from-scratch reference context (incremental routing AND floorplanning
/// off, fresh scratch per check) — including evaluations right after
/// rollbacks, where a stale routing frame would show.
void run_routing_txn_walk(const CoreGraph& app,
                          const topo::Topology& topology, MapperConfig config,
                          int steps, std::uint64_t seed) {
  Mapper mapper(config);
  const EvalContext ctx(app, topology, config, mapper.library());
  auto reference_config = config;
  reference_config.incremental_routing = false;
  reference_config.incremental_floorplan = false;
  const EvalContext reference(app, topology, reference_config,
                              mapper.library());

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
    std::vector<SlotMove> moves;
    const int batch = prng.chance(0.4) ? 2 : 1;
    for (int m = 0; m < batch; ++m) {
      const int a = prng.next_int(0, slots - 1);
      int b = prng.next_int(0, slots - 2);
      if (b >= a) ++b;
      moves.emplace_back(a, b);
    }
    txn.begin_moves(moves);
    const auto eval = txn.evaluate(/*materialize=*/false);
    {
      EvalScratch fresh;
      const auto expected =
          reference.evaluate(mapping, fresh, /*materialize=*/false);
      SCOPED_TRACE(topology.name() + " step " + std::to_string(step) +
                   " batch " + std::to_string(batch));
      expect_same_metrics(eval, expected);
    }
    if (prng.chance(0.5)) {
      txn.commit();
    } else {
      txn.rollback();
      EXPECT_EQ(inverse, inverse_of(mapping, topology.num_slots()));
      const auto back = txn.evaluate(/*materialize=*/false);
      EvalScratch fresh;
      const auto expected =
          reference.evaluate(mapping, fresh, /*materialize=*/false);
      SCOPED_TRACE(topology.name() + " rollback " + std::to_string(step));
      expect_same_metrics(back, expected);
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
  // be the exact routes a from-scratch stack computes.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.routing = route::RoutingKind::kMinPath;
  Mapper mapper(config);
  const EvalContext ctx(app, *mesh, config, mapper.library());
  auto reference_config = config;
  reference_config.incremental_routing = false;
  const EvalContext reference(app, *mesh, reference_config,
                              mapper.library());

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
    const auto eval = txn.evaluate(/*materialize=*/true);
    EvalScratch fresh;
    const auto expected =
        reference.evaluate(mapping, fresh, /*materialize=*/true);
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

TEST(RoutingTxn, EmptyMoveBatchThrows) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  Mapper mapper{MapperConfig{}};
  const EvalContext ctx(app, *mesh, MapperConfig{}, mapper.library());
  std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    mapping[static_cast<std::size_t>(c)] = c;
  }
  auto inverse = inverse_of(mapping, mesh->num_slots());
  EvalScratch scratch;
  DeltaTxn txn(ctx, scratch, mapping, inverse);
  EXPECT_THROW(txn.begin_moves({}), std::invalid_argument);
  txn.begin_moves({{0, 1}, {1, 2}});
  EXPECT_THROW(txn.begin_moves({{2, 3}}), std::logic_error);
  txn.rollback();
  EXPECT_EQ(inverse, inverse_of(mapping, mesh->num_slots()));
}

/// The full search stack must be bit-identical with incremental routing on
/// and off — the session may only change how routes are computed, never
/// what any search sees.
void expect_search_identical(SearchKind kind, route::RoutingKind routing) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.search = kind;
  config.routing = routing;
  config.annealing_iterations = 300;
  const MappingResult incremental = Mapper(config).map(app, *mesh);
  auto reference_config = config;
  reference_config.incremental_routing = false;
  const MappingResult reference = Mapper(reference_config).map(app, *mesh);
  EXPECT_EQ(incremental.core_to_slot, reference.core_to_slot);
  EXPECT_EQ(incremental.eval.cost, reference.eval.cost);
  EXPECT_EQ(incremental.eval.max_link_load_mbps,
            reference.eval.max_link_load_mbps);
  EXPECT_EQ(incremental.eval.design_power_mw,
            reference.eval.design_power_mw);
  EXPECT_EQ(incremental.evaluated_mappings, reference.evaluated_mappings);
  EXPECT_EQ(incremental.pruned_mappings, reference.pruned_mappings);
}

TEST(TransactionalRoutingSearch, GreedyBitIdenticalUnderMinPath) {
  expect_search_identical(SearchKind::kGreedySwaps,
                          route::RoutingKind::kMinPath);
}

TEST(TransactionalRoutingSearch, AnnealingBitIdenticalUnderMinPath) {
  expect_search_identical(SearchKind::kAnnealing,
                          route::RoutingKind::kMinPath);
}

TEST(TransactionalRoutingSearch, AnnealingBitIdenticalUnderSplitAll) {
  expect_search_identical(SearchKind::kAnnealing,
                          route::RoutingKind::kSplitAll);
}

TEST(TransactionalRoutingSearch, RestartAnnealingBitIdenticalUnderSplitAll) {
  expect_search_identical(SearchKind::kRestartAnnealing,
                          route::RoutingKind::kSplitAll);
}

}  // namespace
}  // namespace sunmap::mapping
