// Event-driven vs cycle-stepped engine equivalence: the two engines share
// the router model but differ completely in how time advances, so every
// field of SimStats must match bit-for-bit across the full (topology x
// routing kind x VC config x traffic model) matrix, including the stall /
// saturation / undelivered verdict paths.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "topo/library.h"

namespace sunmap::sim {
namespace {

void expect_identical(const SimStats& event, const SimStats& cycle,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(event.cycles, cycle.cycles);
  EXPECT_EQ(event.packets_generated, cycle.packets_generated);
  EXPECT_EQ(event.packets_delivered, cycle.packets_delivered);
  // Exact equality on purpose: the engines must accumulate the same
  // latencies in the same order, not merely agree to within rounding.
  EXPECT_EQ(event.avg_latency_cycles, cycle.avg_latency_cycles);
  EXPECT_EQ(event.max_latency_cycles, cycle.max_latency_cycles);
  EXPECT_EQ(event.p50_latency_cycles, cycle.p50_latency_cycles);
  EXPECT_EQ(event.p95_latency_cycles, cycle.p95_latency_cycles);
  EXPECT_EQ(event.p99_latency_cycles, cycle.p99_latency_cycles);
  EXPECT_EQ(event.throughput_flits_per_cycle_per_slot,
            cycle.throughput_flits_per_cycle_per_slot);
  EXPECT_EQ(event.offered_flits_per_cycle_per_slot,
            cycle.offered_flits_per_cycle_per_slot);
  EXPECT_EQ(event.saturated, cycle.saturated);
  EXPECT_EQ(event.status, cycle.status);
  EXPECT_EQ(event.stalled_cycles, cycle.stalled_cycles);
  EXPECT_EQ(event.undelivered_packets, cycle.undelivered_packets);
  EXPECT_EQ(event.flit_events, cycle.flit_events);
}

SimConfig matrix_config(std::uint64_t seed) {
  SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 1500;
  config.drain_cycles = 6000;
  config.stall_limit_cycles = 400;
  config.seed = seed;
  return config;
}

/// Runs the same traffic spec under both engines and asserts identity.
/// Traffic models are stateful, so each engine gets a fresh instance.
template <typename MakeTraffic>
void run_both(const topo::Topology& topology, const RouteTable& routes,
              SimConfig config, MakeTraffic make_traffic,
              const std::string& label) {
  config.engine = SimEngine::kEventDriven;
  Simulator event_sim(topology, routes, config);
  auto event_traffic = make_traffic();
  const auto event_stats = event_sim.run(*event_traffic);

  config.engine = SimEngine::kCycleStepped;
  Simulator cycle_sim(topology, routes, config);
  auto cycle_traffic = make_traffic();
  const auto cycle_stats = cycle_sim.run(*cycle_traffic);

  expect_identical(event_stats, cycle_stats, label);
}

TEST(SimEventEquivalence, FullMatrixIsBitIdentical) {
  struct TopoCase {
    const char* name;
    std::unique_ptr<topo::Topology> topology;
  };
  std::vector<TopoCase> topologies;
  topologies.push_back({"mesh16", topo::make_mesh_for(16)});
  topologies.push_back({"torus16", topo::make_torus_for(16)});
  topologies.push_back({"butterfly16", topo::make_butterfly_for(16)});

  std::uint64_t seed = 1;
  for (const auto& tc : topologies) {
    for (const auto kind : route::kAllRoutingKinds) {
      const auto routes = RouteTable::all_pairs(*tc.topology, kind);
      for (const bool vcs : {false, true}) {
        for (const bool bursty : {false, true}) {
          SimConfig config = matrix_config(seed++);
          config.distance_class_vcs = vcs;
          const int slots = tc.topology->num_slots();
          auto make_traffic = [&]() -> std::unique_ptr<TrafficModel> {
            if (bursty) {
              return std::make_unique<BurstyTraffic>(
                  slots, Pattern::kUniform, 0.3, config.flits_per_packet,
                  30.0, 0.3);
            }
            return std::make_unique<PatternTraffic>(
                slots, Pattern::kUniform, 0.10, config.flits_per_packet);
          };
          const std::string label =
              std::string(tc.name) + "/" + route::to_string(kind) +
              (vcs ? "/dvc" : "/vc1") + (bursty ? "/bursty" : "/uniform");
          run_both(*tc.topology, routes, config, make_traffic, label);
        }
      }
    }
  }
}

TEST(SimEventEquivalence, DeadlockStallVerdictIsBitIdentical) {
  // Split-traffic routes on a single-VC mesh under heavy adversarial load:
  // the cyclic channel dependencies wedge the wormholes and both engines
  // must hit the stall limit on the same cycle with the same stall count.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kSplitAll);
  SimConfig config = matrix_config(7);
  config.stall_limit_cycles = 300;
  run_both(*mesh, routes, config, [&] {
    return std::make_unique<PatternTraffic>(mesh->num_slots(),
                                            Pattern::kBitComplement, 0.5,
                                            config.flits_per_packet);
  }, "deadlock-stall");
}

TEST(SimEventEquivalence, SaturationVerdictIsBitIdentical) {
  // Offered load far past capacity, distance-class VCs so it congests
  // without deadlocking: the acceptance check must fire identically.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  SimConfig config = matrix_config(11);
  config.distance_class_vcs = true;
  config.drain_cycles = 3000;
  run_both(*mesh, routes, config, [&] {
    return std::make_unique<PatternTraffic>(mesh->num_slots(),
                                            Pattern::kBitComplement, 0.8,
                                            config.flits_per_packet);
  }, "saturation");
}

TEST(SimEventEquivalence, UndeliveredVerdictIsBitIdentical) {
  // A drain budget too small to flush the measured packets: the run ends
  // with undelivered packets (not a stall) in both engines.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  SimConfig config = matrix_config(13);
  config.distance_class_vcs = true;
  config.drain_cycles = 5;
  run_both(*mesh, routes, config, [&] {
    return std::make_unique<PatternTraffic>(mesh->num_slots(),
                                            Pattern::kUniform, 0.3,
                                            config.flits_per_packet);
  }, "undelivered");
}

TEST(SimEventEquivalence, HighLinkLatencyAndDeepBuffersMatch) {
  const auto torus = topo::make_torus_for(16);
  const auto routes =
      RouteTable::all_pairs(*torus, route::RoutingKind::kMinPath);
  SimConfig config = matrix_config(17);
  config.link_latency_cycles = 4;
  config.buffer_depth_flits = 8;
  config.flits_per_packet = 6;
  config.distance_class_vcs = true;
  run_both(*torus, routes, config, [&] {
    return std::make_unique<PatternTraffic>(torus->num_slots(),
                                            Pattern::kTornado, 0.2,
                                            config.flits_per_packet);
  }, "latency4-depth8");
}

TEST(SimEventEquivalence, TraceTrafficMatches) {
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kSplitMin);
  SimConfig config = matrix_config(19);
  config.distance_class_vcs = true;
  run_both(*mesh, routes, config, [&] {
    std::vector<TrafficFlow> flows{
        {0, 15, 400.0}, {15, 0, 400.0}, {3, 12, 250.0}, {5, 10, 150.0}};
    return std::make_unique<TraceTraffic>(flows, config.flits_per_packet,
                                          0.5);
  }, "trace");
}

TEST(Simulator, RunIsRepeatable) {
  // run() resets all dynamic state including the PRNG: the same Simulator
  // rerun with fresh traffic produces the same stats as a new instance.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  const SimConfig config = matrix_config(23);
  Simulator reused(*mesh, routes, config);
  PatternTraffic first(mesh->num_slots(), Pattern::kUniform, 0.15, 4);
  const auto run1 = reused.run(first);
  PatternTraffic second(mesh->num_slots(), Pattern::kUniform, 0.15, 4);
  const auto run2 = reused.run(second);
  expect_identical(run1, run2, "reuse");

  Simulator fresh(*mesh, routes, config);
  PatternTraffic third(mesh->num_slots(), Pattern::kUniform, 0.15, 4);
  expect_identical(run1, fresh.run(third), "reuse-vs-fresh");
}

TEST(Simulator, SharedLayoutMatchesPrivateLayout) {
  const auto mesh = topo::make_mesh_for(16);
  const auto layout = make_network_layout(*mesh);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kMinPath);
  const SimConfig config = matrix_config(29);
  PatternTraffic a(mesh->num_slots(), Pattern::kTranspose, 0.2, 4);
  Simulator with_layout(*mesh, routes, config, layout);
  const auto shared_stats = with_layout.run(a);
  PatternTraffic b(mesh->num_slots(), Pattern::kTranspose, 0.2, 4);
  Simulator without(*mesh, routes, config);
  expect_identical(shared_stats, without.run(b), "shared-layout");
}

TEST(Simulator, BindRebindsRoutesOnSameNetwork) {
  // One Simulator scores two different route tables over one topology —
  // the finalist-scoring reuse pattern. Each binding must match a fresh
  // simulator built directly on that table.
  const auto mesh = topo::make_mesh_for(16);
  const auto do_routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  const auto sa_routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kSplitAll);
  SimConfig config = matrix_config(31);
  config.distance_class_vcs = true;

  Simulator reused(*mesh, do_routes, config);
  PatternTraffic a(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  const auto do_stats = reused.run(a);
  reused.bind(sa_routes);
  PatternTraffic b(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  const auto sa_stats = reused.run(b);

  Simulator fresh_do(*mesh, do_routes, config);
  PatternTraffic c(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  expect_identical(do_stats, fresh_do.run(c), "bind-do");
  Simulator fresh_sa(*mesh, sa_routes, config);
  PatternTraffic d(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  expect_identical(sa_stats, fresh_sa.run(d), "bind-sa");
}

TEST(RouteTable, BorrowedRoutesBehaveLikeOwned) {
  const auto mesh = topo::make_mesh_for(9);
  const auto owned =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  RouteTable borrowed(mesh->num_slots());
  for (int s = 0; s < mesh->num_slots(); ++s) {
    for (int d = 0; d < mesh->num_slots(); ++d) {
      if (s == d) continue;
      borrowed.set_ref(s, d, owned.at(s, d));
    }
  }
  EXPECT_EQ(borrowed.max_path_switches(), owned.max_path_switches());

  const SimConfig config = matrix_config(37);
  PatternTraffic a(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  Simulator on_owned(*mesh, owned, config);
  const auto owned_stats = on_owned.run(a);
  PatternTraffic b(mesh->num_slots(), Pattern::kUniform, 0.1, 4);
  Simulator on_borrowed(*mesh, borrowed, config);
  expect_identical(owned_stats, on_borrowed.run(b), "borrowed");
}

TEST(BurstyTraffic, InjectsOnlyDuringBurstsAtTheConfiguredRate) {
  util::Prng prng(5);
  BurstyTraffic traffic(16, Pattern::kUniform, 0.4, 4, 50.0, 0.25);
  std::vector<std::pair<int, int>> out;
  std::uint64_t injected = 0;
  const std::uint64_t cycles = 200000;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    out.clear();
    traffic.injections(c, prng, out);
    injected += out.size();
  }
  // Long-run packet rate per slot ~= duty * burst_rate / flits_per_packet,
  // minus the self-addressed redraws (none for uniform). 25% duty at 0.1
  // packets/cycle -> 0.025; allow generous tolerance.
  const double rate =
      static_cast<double>(injected) / static_cast<double>(cycles) / 16.0;
  EXPECT_GT(rate, 0.015);
  EXPECT_LT(rate, 0.035);
}

TEST(BurstyTraffic, RejectsInvalidShape) {
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, 0.5, 0.25),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, 30.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, 30.0, 1.0),
               std::invalid_argument);

  // Non-finite values fail every comparison, so each needs its own check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, nan, 4, 30.0, 0.25),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, nan, 0.25),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, inf, 0.25),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(16, Pattern::kUniform, 0.4, 4, 30.0, nan),
               std::invalid_argument);

  // The trace shape: flow rates, scaling and burst shape alike.
  const std::vector<TrafficFlow> flows{{0, 1, 100.0}};
  EXPECT_NO_THROW(BurstyTraffic(flows, 4, 0.05, 30.0, 0.3));
  EXPECT_THROW(BurstyTraffic({{0, 1, nan}}, 4, 0.05, 30.0, 0.3),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic({{0, 1, inf}}, 4, 0.05, 30.0, 0.3),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(flows, 4, nan, 30.0, 0.3),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(flows, 4, 0.05, nan, 0.3),
               std::invalid_argument);
  EXPECT_THROW(BurstyTraffic(flows, 4, 0.05, 30.0, nan),
               std::invalid_argument);
  try {
    BurstyTraffic(flows, 4, nan, 30.0, 0.3);
    ADD_FAILURE() << "a NaN trace scaling was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("flits_per_cycle_per_gbps"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nan"), std::string::npos);
  }
}

TEST(EventQueue, RingWrapsAndGrowsWithoutReordering) {
  // Interleave schedules and pops so the ring's head walks away from slot 0
  // and the arena both wraps around and grows while wrapped; pop order must
  // stay (cycle, schedule-order) throughout.
  EventQueue queue;
  int scheduled = 0;
  int popped = 0;
  std::uint64_t cycle = 0;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i) queue.schedule(++cycle, scheduled++);
  };
  const auto drain = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_FALSE(queue.empty());
      EXPECT_EQ(queue.front().payload, popped++);
      queue.pop();
    }
  };
  push(40);
  drain(30);                        // head now mid-arena
  push(50);                         // wraps within the 64-slot arena
  push(100);                        // grows past 64 while wrapped
  drain(160);
  EXPECT_TRUE(queue.empty());

  // clear() keeps the storage and resets to a pristine queue.
  push(3);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  queue.schedule(cycle + 1, 7);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front().payload, 7);
}

TEST(EventQueue, PopsInCycleThenFifoOrder) {
  EventQueue queue;
  queue.schedule(3, 1);
  queue.schedule(3, 2);
  queue.schedule(3, 2);  // adjacent duplicate coalesces
  queue.schedule(5, 0);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_FALSE(queue.due(2));
  ASSERT_TRUE(queue.due(3));
  EXPECT_EQ(queue.front().payload, 1);
  queue.pop();
  EXPECT_EQ(queue.front().payload, 2);
  queue.pop();
  EXPECT_FALSE(queue.due(4));
  ASSERT_TRUE(queue.due(5));
  EXPECT_EQ(queue.front().payload, 0);
  queue.pop();
  EXPECT_TRUE(queue.empty());
}

TEST(InjectionSchedule, ShortRunThenLongerRunMatchesFreshRuns) {
  // The first run wedges a single-VC split-all mesh and ends at the stall
  // limit; the second, over deadlock-free routes, outlives it and must
  // draw the cycles the first never reached. Both must match fresh runs.
  const auto mesh = topo::make_mesh_for(16);
  const auto split =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kSplitAll);
  const auto xy =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  SimConfig config = matrix_config(41);
  config.stall_limit_cycles = 300;
  const auto make_traffic = [&] {
    return PatternTraffic(mesh->num_slots(), Pattern::kBitComplement, 0.5,
                          config.flits_per_packet);
  };

  for (const auto engine :
       {SimEngine::kEventDriven, SimEngine::kCycleStepped}) {
    config.engine = engine;
    SCOPED_TRACE(to_string(engine));
    auto traffic = make_traffic();
    InjectionSchedule schedule(traffic, config.seed);
    Simulator wedged(*mesh, split, config);
    const auto short_run = wedged.run(schedule);
    ASSERT_EQ(short_run.status, RunStatus::kStalled);
    const std::uint64_t drawn_after_short = schedule.drawn();

    Simulator healthy(*mesh, xy, config);
    const auto long_run = healthy.run(schedule);
    EXPECT_GT(long_run.cycles, drawn_after_short);
    EXPECT_GE(schedule.drawn(), long_run.cycles);
    EXPECT_LE(schedule.drawn(), config.warmup_cycles + config.measure_cycles +
                                    config.drain_cycles);

    auto fresh_short = make_traffic();
    expect_identical(short_run,
                     Simulator(*mesh, split, config).run(fresh_short),
                     "short");
    auto fresh_long = make_traffic();
    expect_identical(long_run, Simulator(*mesh, xy, config).run(fresh_long),
                     "long");
  }
}

TEST(InjectionSchedule, RunNeverDrawsPastItsLastCycle) {
  // A drain budget too small to flush the measured packets runs the
  // whole budget: the schedule ends exactly where the run does, as a live
  // run never polls its traffic past the last cycle.
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  SimConfig config = matrix_config(47);
  config.drain_cycles = 5;
  PatternTraffic traffic(mesh->num_slots(), Pattern::kUniform, 0.3,
                         config.flits_per_packet);
  InjectionSchedule schedule(traffic, config.seed);
  const auto stats = Simulator(*mesh, routes, config).run(schedule);
  ASSERT_EQ(stats.status, RunStatus::kUndelivered);
  const std::uint64_t hard_end =
      config.warmup_cycles + config.measure_cycles + config.drain_cycles;
  EXPECT_EQ(stats.cycles, hard_end);
  EXPECT_EQ(schedule.drawn(), hard_end);
}

TEST(InjectionSchedule, ExtensionGranularityDoesNotChangeEntries) {
  // A schedule extended one cycle at a time, one extended in a single call
  // and the stream a live run draws by hand (poll, then one path uniform
  // per injection that is not self-addressed) must agree entry for entry.
  // Bursty sources carry on/off state across cycles, and the trace below
  // has a self-addressed flow that must consume no uniform.
  const std::uint64_t cycles = 3000;
  const std::uint64_t seed = 9;
  const auto expect_same = [&](const auto& make_model) {
    auto stepped_model = make_model();
    InjectionSchedule stepped(stepped_model, seed);
    for (std::uint64_t c = 1; c <= cycles; ++c) stepped.extend_to(c);
    auto bulk_model = make_model();
    InjectionSchedule bulk(bulk_model, seed);
    bulk.extend_to(cycles);
    bulk.extend_to(cycles / 2);  // never shrinks or redraws
    ASSERT_EQ(stepped.drawn(), cycles);
    ASSERT_EQ(bulk.drawn(), cycles);

    auto live_model = make_model();
    util::Prng prng(seed);
    std::vector<std::pair<int, int>> poll;
    std::size_t injections = 0;
    for (std::uint64_t c = 0; c < cycles; ++c) {
      poll.clear();
      live_model.injections(c, prng, poll);
      std::vector<ScheduledInjection> live;
      for (const auto& [src, dst] : poll) {
        if (src != dst) live.push_back({src, dst, prng.next_double()});
      }
      const auto a = stepped.at(c);
      const auto b = bulk.at(c);
      ASSERT_EQ(a.size(), live.size()) << "cycle " << c;
      ASSERT_EQ(b.size(), live.size()) << "cycle " << c;
      for (std::size_t i = 0; i < live.size(); ++i) {
        for (const auto& entry : {a[i], b[i]}) {
          EXPECT_EQ(entry.src, live[i].src);
          EXPECT_EQ(entry.dst, live[i].dst);
          EXPECT_EQ(entry.path_draw, live[i].path_draw);
        }
      }
      injections += live.size();
    }
    EXPECT_GT(injections, 0u);
  };

  expect_same([] {
    return BurstyTraffic(16, Pattern::kUniform, 0.3, 4, 30.0, 0.3);
  });
  expect_same([] {
    return TraceTraffic({{0, 15, 400.0}, {3, 3, 300.0}, {5, 10, 150.0}}, 4,
                        0.5);
  });
}

TEST(Simulator, RejectsInjectionEndpointsOutsideTheTopology) {
  const auto mesh = topo::make_mesh_for(16);
  const auto routes =
      RouteTable::all_pairs(*mesh, route::RoutingKind::kDimensionOrdered);
  const SimConfig config = matrix_config(43);
  Simulator simulator(*mesh, routes, config);
  TraceTraffic stray({{0, 16, 400.0}}, 4, 0.5);
  EXPECT_THROW((void)simulator.run(stray), std::out_of_range);

  TraceTraffic labelled({{0, 1, 400.0}}, 4, 0.5);
  InjectionSchedule schedule(labelled, config.seed);
  const std::vector<int> off_mesh{3, -1};
  EXPECT_THROW((void)simulator.run(schedule, off_mesh), std::out_of_range);
  const std::vector<int> too_short{3};
  EXPECT_THROW((void)simulator.run(schedule, too_short), std::out_of_range);
  const std::vector<int> relabelled{3, 12};
  EXPECT_GT(simulator.run(schedule, relabelled).packets_delivered, 0u);
}

}  // namespace
}  // namespace sunmap::sim

// ---- The explorer's high-fidelity finalist tier and its outputs. ----

#include <algorithm>

#include "apps/apps.h"
#include "io/exploration_io.h"
#include "mapping/sim_eval.h"
#include "select/explorer.h"

namespace sunmap {
namespace {

select::ExplorationRequest tier_request(
    const mapping::CoreGraph& app,
    const std::vector<std::unique_ptr<topo::Topology>>& library) {
  select::ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.objectives = {mapping::Objective::kMinDelay,
                        mapping::Objective::kMinPower};
  request.routings = {route::RoutingKind::kDimensionOrdered,
                      route::RoutingKind::kMinPath};
  return request;
}

std::size_t count_scored(const select::ExplorationReport& report) {
  std::size_t scored = 0;
  for (const auto& result : report.results) {
    for (const auto& candidate : result.selection.candidates) {
      if (candidate.sim.has_value()) ++scored;
    }
  }
  return scored;
}

TEST(SimFinalistTier, IsPurelyAdditiveAndDeterministic) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  const auto reference = explorer.explore(request);
  request.sim_finalists = 2;
  const auto scored = explorer.explore(request);

  // The tier must not perturb mapping, selection, or winners.
  ASSERT_EQ(scored.results.size(), reference.results.size());
  for (std::size_t p = 0; p < reference.results.size(); ++p) {
    const auto& ref = reference.results[p].selection;
    const auto& got = scored.results[p].selection;
    EXPECT_EQ(got.best_index, ref.best_index);
    ASSERT_EQ(got.candidates.size(), ref.candidates.size());
    for (std::size_t t = 0; t < ref.candidates.size(); ++t) {
      EXPECT_EQ(got.candidates[t].result.eval.cost,
                ref.candidates[t].result.eval.cost);
      EXPECT_EQ(got.candidates[t].result.core_to_slot,
                ref.candidates[t].result.core_to_slot);
      EXPECT_FALSE(ref.candidates[t].sim.has_value());
    }
  }
  ASSERT_EQ(scored.winners.size(), reference.winners.size());
  for (std::size_t w = 0; w < reference.winners.size(); ++w) {
    EXPECT_EQ(scored.winners[w].point_index, reference.winners[w].point_index);
    EXPECT_EQ(scored.winners[w].topology_index,
              reference.winners[w].topology_index);
  }

  // Top-K per objective group: at least each group's best cell is scored,
  // never more than K per group, only feasible cells, and every winner cell
  // (each group's top-1 by definition) carries a score.
  const std::size_t groups = scored.winners.size();
  EXPECT_GE(count_scored(scored), groups);
  EXPECT_LE(count_scored(scored), groups * 2);
  for (const auto& result : scored.results) {
    for (const auto& candidate : result.selection.candidates) {
      if (candidate.sim.has_value()) {
        EXPECT_TRUE(candidate.feasible());
        // Contention can only add to the zero-load pipeline latency.
        EXPECT_GE(candidate.sim->simulated_latency_cycles,
                  candidate.sim->analytical_latency_cycles - 1e-9);
        EXPECT_GT(candidate.sim->stats.packets_delivered, 0u);
      }
    }
  }
  for (const auto& winner : scored.winners) {
    ASSERT_TRUE(winner.found());
    const auto& cell =
        scored.results[static_cast<std::size_t>(winner.point_index)]
            .selection
            .candidates[static_cast<std::size_t>(winner.topology_index)];
    EXPECT_TRUE(cell.sim.has_value());
  }

  // Re-running the identical request reproduces every score bit for bit.
  const auto again = explorer.explore(request);
  ASSERT_EQ(count_scored(again), count_scored(scored));
  for (std::size_t p = 0; p < scored.results.size(); ++p) {
    for (std::size_t t = 0;
         t < scored.results[p].selection.candidates.size(); ++t) {
      const auto& a = scored.results[p].selection.candidates[t].sim;
      const auto& b = again.results[p].selection.candidates[t].sim;
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) continue;
      EXPECT_EQ(a->stats.avg_latency_cycles, b->stats.avg_latency_cycles);
      EXPECT_EQ(a->stats.cycles, b->stats.cycles);
      EXPECT_EQ(a->stats.flit_events, b->stats.flit_events);
      EXPECT_EQ(a->analytical_latency_cycles, b->analytical_latency_cycles);
    }
  }
}

TEST(SimFinalistTier, EventAndCycleEnginesAgreeBitIdentically) {
  // The tier runs the event engine; every cell it scored must score the
  // same under the cycle-stepped reference, one evaluator per engine.
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 2;
  const auto report = explorer.explore(request);
  ASSERT_GT(count_scored(report), 0u);

  auto event_options = mapping::sim_tier_options(request.base);
  ASSERT_EQ(event_options.config.engine, sim::SimEngine::kEventDriven);
  auto cycle_options = event_options;
  cycle_options.config.engine = sim::SimEngine::kCycleStepped;
  mapping::SimEvaluator event(event_options);
  mapping::SimEvaluator cycle(cycle_options);
  for (const auto& result : report.results) {
    for (const auto& candidate : result.selection.candidates) {
      if (!candidate.sim.has_value()) continue;
      const auto e = event.score(app, *candidate.topology, candidate.result);
      const auto c = cycle.score(app, *candidate.topology, candidate.result);
      EXPECT_EQ(e.stats.cycles, candidate.sim->stats.cycles);
      EXPECT_EQ(e.stats.avg_latency_cycles,
                candidate.sim->stats.avg_latency_cycles);
      EXPECT_EQ(e.stats.cycles, c.stats.cycles);
      EXPECT_EQ(e.stats.packets_delivered, c.stats.packets_delivered);
      EXPECT_EQ(e.stats.avg_latency_cycles, c.stats.avg_latency_cycles);
      EXPECT_EQ(e.stats.flit_events, c.stats.flit_events);
      EXPECT_EQ(e.stats.status, c.stats.status);
      EXPECT_EQ(e.simulated_latency_cycles, c.simulated_latency_cycles);
    }
  }
}

TEST(SimFinalistTier, RejectsNegativeCounts) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = -1;
  EXPECT_THROW((void)explorer.explore(request), std::invalid_argument);
}

TEST(ExplorationIo, SimColumnsRenderOnlyScoredCells) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 1;
  const auto report = explorer.explore(request);
  const std::size_t scored = count_scored(report);
  const std::size_t cells = report.results.size() * library.size();
  ASSERT_GT(scored, 0u);
  ASSERT_LT(scored, cells);

  const auto csv = io::exploration_report_csv(report);
  const auto count = [](const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_NE(csv.find("sim_latency_cycles,sim_analytical_cycles,"
                     "sim_model_error,sim_status,sim_best"),
            std::string::npos);
  // Unscored rows leave all five sim columns empty.
  EXPECT_EQ(count(csv, ",,,,\n"), cells - scored);

  const auto json = io::exploration_report_json(report);
  EXPECT_EQ(count(json, "\"sim\": {"), scored);
  EXPECT_EQ(count(json, "\"sim\": null"), cells - scored);
  EXPECT_EQ(count(json, "\"model_error\": "), scored);
}

TEST(SimEvaluator, CachesLayoutsPerTopologyAndRejectsBareResults) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::TopologySelector selector;
  const auto report = selector.select(app, library);

  mapping::SimEvaluator evaluator;
  ASSERT_GE(report.candidates.size(), 2u);
  const auto& first = report.candidates[0];
  const auto& second = report.candidates[1];
  (void)evaluator.score(app, *first.topology, first.result);
  EXPECT_EQ(evaluator.cached_layouts(), 1u);
  const auto once = evaluator.score(app, *second.topology, second.result);
  EXPECT_EQ(evaluator.cached_layouts(), 2u);
  // Repeat scoring reuses the cached simulator and reproduces the result.
  const auto twice = evaluator.score(app, *second.topology, second.result);
  EXPECT_EQ(evaluator.cached_layouts(), 2u);
  EXPECT_EQ(once.stats.avg_latency_cycles, twice.stats.avg_latency_cycles);
  EXPECT_EQ(once.stats.flit_events, twice.stats.flit_events);

  // A result with no materialized routes cannot be simulated.
  mapping::MappingResult bare;
  EXPECT_THROW((void)evaluator.score(app, *first.topology, bare),
               std::invalid_argument);
}

TEST(MapperConfigValidate, ChecksSimTierFields) {
  mapping::MapperConfig config;
  EXPECT_NO_THROW(config.validate());

  // The simulator seed must be a seed, and the burst shape must be a valid
  // on/off process.
  config.sim_seed = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_seed = 42;
  EXPECT_NO_THROW(config.validate());
  config.sim_burst_len = 0.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_burst_len = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_burst_len = 50.0;
  config.sim_burst_duty = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_burst_duty = 0.3;
  EXPECT_NO_THROW(config.validate());
}

void expect_same_sim_scores(const select::ExplorationReport& a,
                            const select::ExplorationReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t p = 0; p < a.results.size(); ++p) {
    ASSERT_EQ(a.results[p].selection.candidates.size(),
              b.results[p].selection.candidates.size());
    for (std::size_t t = 0; t < a.results[p].selection.candidates.size();
         ++t) {
      const auto& x = a.results[p].selection.candidates[t].sim;
      const auto& y = b.results[p].selection.candidates[t].sim;
      ASSERT_EQ(x.has_value(), y.has_value());
      if (!x.has_value()) continue;
      EXPECT_EQ(x->stats.cycles, y->stats.cycles);
      EXPECT_EQ(x->stats.packets_delivered, y->stats.packets_delivered);
      EXPECT_EQ(x->stats.avg_latency_cycles, y->stats.avg_latency_cycles);
      EXPECT_EQ(x->stats.p99_latency_cycles, y->stats.p99_latency_cycles);
      EXPECT_EQ(x->stats.flit_events, y->stats.flit_events);
      EXPECT_EQ(x->stats.status, y->stats.status);
      EXPECT_EQ(x->analytical_latency_cycles, y->analytical_latency_cycles);
      EXPECT_EQ(x->simulated_latency_cycles, y->simulated_latency_cycles);
    }
  }
}

TEST(SimFinalistTier, ParallelPoolIsBitIdenticalAtAnyThreadCount) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 3;

  request.num_threads = 1;
  const auto serial = explorer.explore(request);
  ASSERT_GT(count_scored(serial), 0u);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    request.num_threads = threads;
    const auto parallel = explorer.explore(request);
    ASSERT_EQ(count_scored(parallel), count_scored(serial));
    expect_same_sim_scores(serial, parallel);
  }
}

TEST(SimFinalistTier, BurstyTrafficIsDeterministicAndDistinctFromTrace) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 2;
  const auto trace = explorer.explore(request);
  request.base.sim_traffic = mapping::SimTraffic::kBursty;
  const auto bursty = explorer.explore(request);
  const auto again = explorer.explore(request);

  // Repeat runs under the bursty model reproduce every score bit for bit.
  ASSERT_GT(count_scored(bursty), 0u);
  expect_same_sim_scores(bursty, again);

  // And the knob actually reaches the simulator: the on/off modulation
  // changes the delivered-traffic statistics of at least one scored cell.
  ASSERT_EQ(count_scored(trace), count_scored(bursty));
  bool differs = false;
  for (std::size_t p = 0; p < trace.results.size(); ++p) {
    for (std::size_t t = 0; t < trace.results[p].selection.candidates.size();
         ++t) {
      const auto& x = trace.results[p].selection.candidates[t].sim;
      const auto& y = bursty.results[p].selection.candidates[t].sim;
      if (!x.has_value() || !y.has_value()) continue;
      differs = differs ||
                x->stats.packets_delivered != y->stats.packets_delivered ||
                x->stats.avg_latency_cycles != y->stats.avg_latency_cycles;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(SimRank, IsAdditiveDeterministicAndCrownsAScoredFinalist) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::DesignSpaceExplorer explorer;
  auto request = tier_request(app, library);
  request.sim_finalists = 2;
  const auto plain = explorer.explore(request);
  EXPECT_TRUE(plain.sim_winners.empty());

  request.sim_rank = true;
  const auto ranked = explorer.explore(request);
  const auto again = explorer.explore(request);

  // Additive: the re-rank changes nothing about the analytical report or
  // the finalist scores — it only fills sim_winners.
  expect_same_sim_scores(plain, ranked);
  ASSERT_EQ(ranked.winners.size(), plain.winners.size());
  for (std::size_t w = 0; w < plain.winners.size(); ++w) {
    EXPECT_EQ(ranked.winners[w].point_index, plain.winners[w].point_index);
    EXPECT_EQ(ranked.winners[w].topology_index,
              plain.winners[w].topology_index);
  }

  // One sim winner per objective group, deterministic across runs, and
  // always a cell the simulator actually scored.
  ASSERT_EQ(ranked.sim_winners.size(), ranked.winners.size());
  ASSERT_EQ(again.sim_winners.size(), ranked.sim_winners.size());
  for (std::size_t w = 0; w < ranked.sim_winners.size(); ++w) {
    const auto& best = ranked.sim_winners[w];
    EXPECT_EQ(best.objective, ranked.winners[w].objective);
    EXPECT_EQ(best.point_index, again.sim_winners[w].point_index);
    EXPECT_EQ(best.topology_index, again.sim_winners[w].topology_index);
    ASSERT_TRUE(best.found());
    const auto& cell =
        ranked.results[static_cast<std::size_t>(best.point_index)]
            .selection
            .candidates[static_cast<std::size_t>(best.topology_index)];
    EXPECT_TRUE(cell.sim.has_value());
  }

  // The rendered outputs surface the re-rank: the CSV gains a marked
  // sim_best cell and the JSON a sim_winners array.
  const auto csv = io::exploration_report_csv(ranked);
  EXPECT_NE(csv.find(",sim_best"), std::string::npos);
  const auto json = io::exploration_report_json(ranked);
  EXPECT_NE(json.find("\"sim_winners\": ["), std::string::npos);
  EXPECT_EQ(json.find("\"sim_winners\": [\n  ],"), std::string::npos);
  // With the re-rank off the array renders empty.
  EXPECT_NE(io::exploration_report_json(plain).find("\"sim_winners\": [\n  ],"),
            std::string::npos);

  // The re-rank without its prefilter is a contract violation.
  request.sim_finalists = 0;
  EXPECT_THROW((void)explorer.explore(request), std::invalid_argument);
}

TEST(SimSeed, DecouplesSimulatorPrngFromSearchSeed) {
  // sim_tier_options carries the dedicated simulator seed (and the traffic
  // shape) into the tier; the default reproduces the historical behavior
  // of seeding the simulator with SimConfig's own default.
  mapping::MapperConfig config;
  EXPECT_EQ(mapping::sim_tier_options(config).config.seed,
            sim::SimConfig{}.seed);
  config.sim_seed = 99;
  config.sim_traffic = mapping::SimTraffic::kBursty;
  config.sim_burst_len = 20.0;
  config.sim_burst_duty = 0.5;
  const auto options = mapping::sim_tier_options(config);
  EXPECT_EQ(options.config.seed, 99u);
  EXPECT_EQ(options.traffic, mapping::SimTraffic::kBursty);
  EXPECT_EQ(options.burst_len, 20.0);
  EXPECT_EQ(options.burst_duty, 0.5);

  // Different simulator seeds change the measured statistics but never the
  // analytical prediction — the searched mapping is untouched.
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());
  select::TopologySelector selector;
  const auto report = selector.select(app, library);
  const auto& best = report.candidates[0];
  mapping::SimTierOptions seeded;
  seeded.config.seed = 1;
  mapping::SimEvaluator one(seeded);
  seeded.config.seed = 2;
  mapping::SimEvaluator two(seeded);
  const auto s1 = one.score(app, *best.topology, best.result);
  const auto s2 = two.score(app, *best.topology, best.result);
  EXPECT_EQ(s1.analytical_latency_cycles, s2.analytical_latency_cycles);
  EXPECT_NE(s1.stats.avg_latency_cycles, s2.stats.avg_latency_cycles);
}

/// The tier's statistics for one mapping recomputed from scratch: a fresh
/// simulator over fresh traffic for that mapping alone, flows in slots.
sim::SimStats fresh_stats(const mapping::SimTierOptions& options,
                          const mapping::CoreGraph& app,
                          const topo::Topology& topology,
                          const mapping::MappingResult& result) {
  const auto commodities = mapping::commodities_by_value(app);
  sim::RouteTable table(topology.num_slots());
  std::vector<sim::TrafficFlow> flows;
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const int src = result.core_to_slot[static_cast<std::size_t>(
        commodities[k].src_core)];
    const int dst = result.core_to_slot[static_cast<std::size_t>(
        commodities[k].dst_core)];
    table.set_ref(src, dst, result.eval.routes[k]);
    flows.push_back({src, dst, commodities[k].value_mbps});
  }
  std::unique_ptr<sim::TrafficModel> traffic;
  if (options.traffic == mapping::SimTraffic::kBursty) {
    traffic = std::make_unique<sim::BurstyTraffic>(
        flows, options.config.flits_per_packet,
        options.flits_per_cycle_per_gbps, options.burst_len,
        options.burst_duty);
  } else {
    traffic = std::make_unique<sim::TraceTraffic>(
        flows, options.config.flits_per_packet,
        options.flits_per_cycle_per_gbps);
  }
  sim::Simulator simulator(topology, table, options.config);
  return simulator.run(*traffic);
}

TEST(SimEvaluator, ReplayedScheduleMatchesFreshRunsAcrossApps) {
  // Every finalist cell of two apps, scored through one evaluator in the
  // order A, B, A: the evaluator replays each app's schedule across its
  // cells and redraws it when the app changes, and every full SimStats
  // record must equal a fresh run of that mapping alone.
  struct AppCells {
    mapping::CoreGraph app;
    std::vector<std::unique_ptr<topo::Topology>> library;
    select::ExplorationReport report;
    std::vector<const select::TopologyCandidate*> cells;
  };
  std::vector<AppCells> apps_under_test;
  apps_under_test.push_back({apps::pip(), {}, {}, {}});
  apps_under_test.push_back({apps::mwd(), {}, {}, {}});
  select::DesignSpaceExplorer explorer;
  for (auto& entry : apps_under_test) {
    entry.library = topo::standard_library(entry.app.num_cores());
    auto request = tier_request(entry.app, entry.library);
    request.sim_finalists = 2;
    entry.report = explorer.explore(request);
    for (const auto& result : entry.report.results) {
      for (const auto& candidate : result.selection.candidates) {
        if (candidate.sim.has_value()) entry.cells.push_back(&candidate);
      }
    }
    ASSERT_GE(entry.cells.size(), 2u);
  }

  for (const auto engine :
       {sim::SimEngine::kEventDriven, sim::SimEngine::kCycleStepped}) {
    for (const auto traffic :
         {mapping::SimTraffic::kTrace, mapping::SimTraffic::kBursty}) {
      mapping::SimTierOptions options;
      options.config.engine = engine;
      options.traffic = traffic;
      mapping::SimEvaluator evaluator(options);
      for (const std::size_t a : {0, 1, 0}) {
        const auto& entry = apps_under_test[a];
        for (const auto* cell : entry.cells) {
          const std::string label =
              std::string(sim::to_string(engine)) + "/" +
              mapping::to_string(traffic) + "/" + entry.app.name() + "/" +
              cell->topology->name();
          const auto replayed =
              evaluator.score(entry.app, *cell->topology, cell->result);
          sim::expect_identical(
              replayed.stats,
              fresh_stats(options, entry.app, *cell->topology, cell->result),
              label);
        }
      }
    }
  }
}

TEST(SimEvaluator, RejectsNonFiniteTraceScaling) {
  // A NaN scaling used to yield zero-probability flows: a "drained" run
  // with no packets and zero latency that rank_sim_winners would crown.
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  select::TopologySelector selector;
  const auto report = selector.select(app, library);
  const auto& best = report.candidates[0];
  for (const auto traffic :
       {mapping::SimTraffic::kTrace, mapping::SimTraffic::kBursty}) {
    mapping::SimTierOptions options;
    options.traffic = traffic;
    options.flits_per_cycle_per_gbps =
        std::numeric_limits<double>::quiet_NaN();
    mapping::SimEvaluator evaluator(options);
    EXPECT_THROW((void)evaluator.score(app, *best.topology, best.result),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace sunmap
