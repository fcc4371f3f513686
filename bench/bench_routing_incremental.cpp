// Cross-PR routing perf probe: the routing session (route::RoutingSession)
// vs the canonical routing loop run inline, and the DeltaTxn evaluation
// stack vs Mapper::evaluate.
//
// Two probes, both SA-shaped (speculative solve then commit|rollback, the
// accept/reject traffic a simulated-annealing chain generates):
//  * session probe — the routing machinery isolated: one persistent
//    RoutingSession against an inline rip-up-and-re-route loop, per-candidate
//    two-slot swaps on vopd/mpeg4/synth48 under minimum-path and split-all
//    routing. Every speculative solve is checked bit-for-bit (loads and
//    every route) against that inline loop.
//  * evaluation probe — the same walk through the full DeltaTxn evaluation
//    stack, checked step by step against Mapper::evaluate (routing,
//    floorplan and faults from scratch). Its from_scratch_ms column times
//    the same walk through Mapper::evaluate, which pays a from-scratch
//    floorplan per candidate; it is informational and measures no part of
//    the routing session. Timing rounds run on freshly built contexts so
//    the metric caches cannot turn the timed walk into a cache-hit replay.
//
// The session runs the whole loop whenever an endpoint moved and returns
// its stored result when none did. So each leg's ratio is set by its share
// of swaps that move no core: swaps of two empty slots.
//  * On an app's minimal mesh (every/nearly every slot occupied) nearly
//    every swap moves a core, and both sides run the same loop: these legs
//    gate bit-identity and report speed informationally.
//  * On an exploration mesh (>= 4x the cores) most uniform slot swaps move
//    only empty slots, and the session returns its stored loads in
//    O(edges). The >=2x acceptance bar is gated on the exploration legs
//    whose routing work is macroscopic; the microsecond-scale minimum-path
//    legs on 49-slot meshes are dominated by fixed per-solve costs on both
//    sides and are reported informationally. The mapping searches never
//    evaluate a swap of two empty slots (they skip it as a no-op), so the
//    gated ratio measures the same-endpoint return, not search speed.
//
// `--json` writes BENCH_routing_incremental.json (bench/probe.h). Its
// invariants: routing_bit_identical (every leg, both kinds, both probes)
// and routing_incremental_2x (time-weighted aggregate session speedup over
// the gated exploration legs >= 2x for minimum-path AND for split-all); the
// binary exits nonzero when either fails. Only the session and DeltaTxn
// legs are sub-benchmarks: the from-scratch legs are the reference path.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "bench/probe.h"
#include "mapping/core_graph.h"
#include "mapping/delta_txn.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "route/routing.h"
#include "route/routing_session.h"
#include "topo/library.h"
#include "util/prng.h"
#include "util/table.h"

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace {

using namespace sunmap;

constexpr int kTimingRounds = 3;

mapping::CoreGraph make_synth48() {
  apps::SyntheticSpec spec;
  spec.num_cores = 48;
  spec.edge_density = 0.05;
  spec.seed = 42;
  return apps::synthetic(spec);
}

struct Workloads {
  mapping::CoreGraph vopd = apps::vopd();
  mapping::CoreGraph mpeg4 = apps::mpeg4();
  mapping::CoreGraph synth48 = make_synth48();
  std::unique_ptr<topo::Topology> mesh16 = topo::make_mesh_for(16);
  // vopd/mpeg4 exploration (12 cores on 49 slots) and synth48 exploration
  // (48 cores on the 15x15 mesh): the >=4x-slots shapes SUNMAP's topology
  // selection sweeps mid-search.
  std::unique_ptr<topo::Topology> mesh49 = topo::make_mesh_for(48);
  std::unique_ptr<topo::Topology> mesh64 = topo::make_mesh_for(64);
  std::unique_ptr<topo::Topology> mesh225 = topo::make_mesh_for(200);
};

struct Leg {
  std::string key;
  const mapping::CoreGraph* app = nullptr;
  const topo::Topology* topology = nullptr;
  route::RoutingKind kind = route::RoutingKind::kMinPath;
  int steps = 0;
  bool gated_2x = false;  ///< leg participates in the 2x aggregate
};

std::vector<Leg> make_session_legs(const Workloads& w) {
  using K = route::RoutingKind;
  return {
      // Minimal meshes: bit-identity + bounded overhead, informational.
      {"vopd_mesh16_mp", &w.vopd, w.mesh16.get(), K::kMinPath, 200, false},
      {"vopd_mesh16_sa", &w.vopd, w.mesh16.get(), K::kSplitAll, 60, false},
      {"mpeg4_mesh16_mp", &w.mpeg4, w.mesh16.get(), K::kMinPath, 200, false},
      {"mpeg4_mesh16_sa", &w.mpeg4, w.mesh16.get(), K::kSplitAll, 60, false},
      {"synth48_mesh64_mp", &w.synth48, w.mesh64.get(), K::kMinPath, 200,
       false},
      {"synth48_mesh64_sa", &w.synth48, w.mesh64.get(), K::kSplitAll, 60,
       false},
      // Exploration meshes: the gated >=2x regime (microsecond-scale MP legs
      // on the 49-slot meshes stay informational).
      {"vopd_mesh49_mp", &w.vopd, w.mesh49.get(), K::kMinPath, 200, false},
      {"vopd_mesh49_sa", &w.vopd, w.mesh49.get(), K::kSplitAll, 100, true},
      {"mpeg4_mesh49_mp", &w.mpeg4, w.mesh49.get(), K::kMinPath, 200, false},
      {"mpeg4_mesh49_sa", &w.mpeg4, w.mesh49.get(), K::kSplitAll, 100, true},
      {"synth48_mesh225_mp", &w.synth48, w.mesh225.get(), K::kMinPath, 200,
       true},
      {"synth48_mesh225_sa", &w.synth48, w.mesh225.get(), K::kSplitAll, 60,
       true},
  };
}

std::vector<Leg> make_eval_legs(const Workloads& w) {
  using K = route::RoutingKind;
  return {
      {"vopd_mesh16_mp", &w.vopd, w.mesh16.get(), K::kMinPath, 120, false},
      {"vopd_mesh16_sa", &w.vopd, w.mesh16.get(), K::kSplitAll, 40, false},
      {"vopd_mesh49_sa", &w.vopd, w.mesh49.get(), K::kSplitAll, 60, false},
      {"synth48_mesh64_mp", &w.synth48, w.mesh64.get(), K::kMinPath, 120,
       false},
      {"synth48_mesh225_mp", &w.synth48, w.mesh225.get(), K::kMinPath, 120,
       false},
  };
}

struct ProbeRow {
  std::string key;
  double from_scratch_ms = 0.0;
  double incremental_ms = 0.0;
  bool bit_identical = false;
  bool gated_2x = false;
  double snapshot_rate = 0.0;  ///< same-endpoint returns / solves

  [[nodiscard]] double speedup() const {
    return incremental_ms > 0.0 ? from_scratch_ms / incremental_ms : 0.0;
  }
};

/// One (slot a, slot b) swap per step, identical across passes because the
/// Prng is reseeded identically.
struct SwapSequence {
  explicit SwapSequence(int num_slots, std::uint64_t seed = 1234)
      : prng(seed), slots(num_slots) {}
  util::Prng prng;
  int slots;

  std::pair<int, int> next() {
    const int a = prng.next_int(0, slots - 1);
    int b = prng.next_int(0, slots - 2);
    if (b >= a) ++b;
    return {a, b};
  }
};

// ---- Session probe: the routing machinery isolated. ----------------------

/// The from-scratch competitor and the session's oracle: the canonical
/// routing loop (decreasing-value pass then rip-up rounds) inlined, no
/// session, no stored result.
void reference_route_all(const route::RoutingEngine& engine,
                         const std::vector<mapping::Commodity>& commodities,
                         const std::vector<route::CommodityEndpoints>& ends,
                         route::LoadMap& loads,
                         std::vector<route::RouteSet>& routes,
                         int reroute_passes) {
  loads.clear();
  const std::size_t n = commodities.size();
  routes.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    engine.route(ends[k].src, ends[k].dst, commodities[k].value_mbps, loads,
                 routes[k]);
    loads.add_route(routes[k], commodities[k].value_mbps);
  }
  for (int pass = 0; pass < reroute_passes; ++pass) {
    for (std::size_t k = 0; k < n; ++k) {
      loads.remove_route(routes[k], commodities[k].value_mbps);
      engine.route(ends[k].src, ends[k].dst, commodities[k].value_mbps, loads,
                   routes[k]);
      loads.add_route(routes[k], commodities[k].value_mbps);
    }
  }
}

ProbeRow run_session_probe(const Leg& leg) {
  const topo::Topology& topology = *leg.topology;
  route::RoutingEngine::Options options;
  route::QuadrantTable quadrants(topology);
  if (leg.kind == route::RoutingKind::kMinPath) {
    options.quadrant_table = &quadrants;
  }
  const route::RoutingEngine engine(topology, leg.kind, options);
  const auto commodities = mapping::commodities_by_value(*leg.app);
  std::vector<double> demands;
  for (const auto& c : commodities) demands.push_back(c.value_mbps);
  const int reroute_passes = mapping::MapperConfig{}.reroute_passes;
  const int num_edges = topology.switch_graph().num_edges();
  const int num_slots = topology.num_slots();

  const auto endpoints_of = [&](const std::vector<int>& core_to_slot) {
    std::vector<route::CommodityEndpoints> ends;
    ends.reserve(commodities.size());
    for (const auto& c : commodities) {
      ends.push_back(route::CommodityEndpoints{
          core_to_slot[static_cast<std::size_t>(c.src_core)],
          core_to_slot[static_cast<std::size_t>(c.dst_core)]});
    }
    return ends;
  };
  const auto initial_mapping = [&] {
    std::vector<int> core_to_slot(
        static_cast<std::size_t>(leg.app->num_cores()));
    for (int c = 0; c < leg.app->num_cores(); ++c) {
      core_to_slot[static_cast<std::size_t>(c)] = c;
    }
    return core_to_slot;
  };
  const auto swap_slots = [&](std::vector<int>& core_to_slot,
                              std::vector<int>& slot_to_core, int a, int b) {
    mapping::apply_slot_swap(a, b, core_to_slot, slot_to_core);
  };
  const auto inverse_of = [&](const std::vector<int>& core_to_slot) {
    std::vector<int> slot_to_core(static_cast<std::size_t>(num_slots), -1);
    for (std::size_t c = 0; c < core_to_slot.size(); ++c) {
      slot_to_core[static_cast<std::size_t>(core_to_slot[c])] =
          static_cast<int>(c);
    }
    return slot_to_core;
  };

  ProbeRow row;
  row.key = leg.key;
  row.gated_2x = leg.gated_2x;

  // Correctness pass (untimed): every speculative solve must match the
  // inline loop on the same assignment — loads and every route, bitwise.
  {
    auto core_to_slot = initial_mapping();
    auto slot_to_core = inverse_of(core_to_slot);
    route::RoutingSession session;
    session.reset(demands, reroute_passes);
    route::LoadMap loads(num_edges);
    route::LoadMap expected(num_edges);
    std::vector<route::RouteSet> expected_routes;
    session.solve(engine, endpoints_of(core_to_slot), loads,
                  /*speculative=*/false);
    SwapSequence sequence(num_slots);
    util::Prng accept_prng(99);
    row.bit_identical = true;
    for (int step = 0; step < leg.steps && row.bit_identical; ++step) {
      const auto [a, b] = sequence.next();
      swap_slots(core_to_slot, slot_to_core, a, b);
      const auto ends = endpoints_of(core_to_slot);
      session.solve(engine, ends, loads, /*speculative=*/true);

      reference_route_all(engine, commodities, ends, expected, expected_routes,
                          reroute_passes);
      if (loads.values() != expected.values()) row.bit_identical = false;
      for (int k = 0; k < session.num_commodities(); ++k) {
        if (!route::same_routes(session.route(k),
                                expected_routes[static_cast<std::size_t>(k)])) {
          row.bit_identical = false;
        }
      }
      if (accept_prng.chance(0.5)) {
        session.commit();
      } else {
        session.pop();
        swap_slots(core_to_slot, slot_to_core, a, b);
      }
    }
    const auto& stats = session.stats();
    row.snapshot_rate =
        stats.solves > 0 ? static_cast<double>(stats.snapshot_solves) /
                               static_cast<double>(stats.solves)
                         : 0.0;
  }

  // Timing passes, best of kTimingRounds per side.
  row.from_scratch_ms = std::numeric_limits<double>::infinity();
  row.incremental_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kTimingRounds; ++round) {
    // From-scratch: the inline canonical loop per candidate.
    {
      auto core_to_slot = initial_mapping();
      auto slot_to_core = inverse_of(core_to_slot);
      route::LoadMap loads(num_edges);
      std::vector<route::RouteSet> routes;
      SwapSequence sequence(num_slots);
      util::Prng accept_prng(99);
      double blackhole = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int step = 0; step < leg.steps; ++step) {
        const auto [a, b] = sequence.next();
        swap_slots(core_to_slot, slot_to_core, a, b);
        reference_route_all(engine, commodities, endpoints_of(core_to_slot),
                            loads, routes, reroute_passes);
        blackhole += loads.max_load();
        if (!accept_prng.chance(0.5)) {
          swap_slots(core_to_slot, slot_to_core, a, b);
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(blackhole);
      row.from_scratch_ms = std::min(
          row.from_scratch_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    // Incremental: one session, speculative solve + commit|pop.
    {
      auto core_to_slot = initial_mapping();
      auto slot_to_core = inverse_of(core_to_slot);
      route::RoutingSession session;
      session.reset(demands, reroute_passes);
      route::LoadMap loads(num_edges);
      session.solve(engine, endpoints_of(core_to_slot), loads,
                    /*speculative=*/false);
      SwapSequence sequence(num_slots);
      util::Prng accept_prng(99);
      double blackhole = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int step = 0; step < leg.steps; ++step) {
        const auto [a, b] = sequence.next();
        swap_slots(core_to_slot, slot_to_core, a, b);
        session.solve(engine, endpoints_of(core_to_slot), loads,
                      /*speculative=*/true);
        blackhole += loads.max_load();
        if (accept_prng.chance(0.5)) {
          session.commit();
        } else {
          session.pop();
          swap_slots(core_to_slot, slot_to_core, a, b);
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(blackhole);
      row.incremental_ms = std::min(
          row.incremental_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return row;
}

// ---- Evaluation probe: the full DeltaTxn stack vs Mapper::evaluate. -----

ProbeRow run_eval_probe(const Leg& leg) {
  const topo::Topology& topology = *leg.topology;
  mapping::MapperConfig config;
  config.routing = leg.kind;
  const mapping::Mapper mapper(config);

  const int num_slots = topology.num_slots();
  const auto initial_mapping = [&] {
    std::vector<int> core_to_slot(
        static_cast<std::size_t>(leg.app->num_cores()));
    for (int c = 0; c < leg.app->num_cores(); ++c) {
      core_to_slot[static_cast<std::size_t>(c)] = c;
    }
    return core_to_slot;
  };
  const auto inverse_of = [&](const std::vector<int>& core_to_slot) {
    std::vector<int> slot_to_core(static_cast<std::size_t>(num_slots), -1);
    for (std::size_t c = 0; c < core_to_slot.size(); ++c) {
      slot_to_core[static_cast<std::size_t>(core_to_slot[c])] =
          static_cast<int>(c);
    }
    return slot_to_core;
  };

  // The walk through a context's DeltaTxn; returns the cost stream's sum so
  // the work cannot be optimized away. With `bit_identical`, every step is
  // checked against Mapper::evaluate of the same mapping.
  const auto drive_context = [&](const mapping::EvalContext& context,
                                 bool* bit_identical) {
    auto mapping = initial_mapping();
    auto inverse = inverse_of(mapping);
    mapping::EvalScratch scratch;
    mapping::DeltaTxn txn(context, scratch, mapping, inverse);
    SwapSequence sequence(num_slots);
    util::Prng accept_prng(99);
    double cost_sum = 0.0;
    for (int step = 0; step < leg.steps; ++step) {
      const auto [a, b] = sequence.next();
      txn.begin_swap(a, b);
      const auto eval = txn.evaluate();
      cost_sum += eval.cost;
      if (bit_identical != nullptr && *bit_identical) {
        const auto expected = mapper.evaluate(*leg.app, topology, mapping);
        if (eval.cost != expected.cost ||
            eval.max_link_load_mbps != expected.max_link_load_mbps ||
            eval.design_power_mw != expected.design_power_mw ||
            eval.design_area_mm2 != expected.design_area_mm2 ||
            eval.avg_switch_hops != expected.avg_switch_hops ||
            eval.avg_path_latency_ns != expected.avg_path_latency_ns) {
          *bit_identical = false;
        }
      }
      if (accept_prng.chance(0.5)) {
        txn.commit();
      } else {
        txn.rollback();
      }
    }
    return cost_sum;
  };
  // The same walk through Mapper::evaluate.
  const auto drive_mapper = [&] {
    auto mapping = initial_mapping();
    auto inverse = inverse_of(mapping);
    SwapSequence sequence(num_slots);
    util::Prng accept_prng(99);
    double cost_sum = 0.0;
    for (int step = 0; step < leg.steps; ++step) {
      const auto [a, b] = sequence.next();
      mapping::apply_slot_swap(a, b, mapping, inverse);
      cost_sum += mapper.evaluate(*leg.app, topology, mapping).cost;
      if (!accept_prng.chance(0.5)) {
        mapping::apply_slot_swap(a, b, mapping, inverse);
      }
    }
    return cost_sum;
  };

  ProbeRow row;
  row.key = leg.key;
  row.bit_identical = true;
  {
    const mapping::EvalContext ctx(*leg.app, topology, config,
                                   mapper.library());
    (void)drive_context(ctx, &row.bit_identical);
  }

  // Timing rounds on freshly built contexts: a context reused across rounds
  // would answer the identical candidate stream from its metric cache and
  // time nothing but hash lookups.
  row.from_scratch_ms = std::numeric_limits<double>::infinity();
  row.incremental_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kTimingRounds; ++round) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      const double blackhole = drive_mapper();
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(blackhole);
      row.from_scratch_ms = std::min(
          row.from_scratch_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    {
      const mapping::EvalContext fresh(*leg.app, topology, config,
                                       mapper.library());
      const auto t0 = std::chrono::steady_clock::now();
      const double blackhole = drive_context(fresh, nullptr);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(blackhole);
      row.incremental_ms = std::min(
          row.incremental_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return row;
}

// ---- Micro-benchmarks. ---------------------------------------------------

void BM_RoutingSessionSpeculativeSwap(benchmark::State& state) {
  const auto mesh = topo::make_mesh_for(16);
  const route::RoutingEngine engine(*mesh, route::RoutingKind::kMinPath);
  const auto app = apps::vopd();
  const auto commodities = mapping::commodities_by_value(app);
  std::vector<double> demands;
  for (const auto& c : commodities) demands.push_back(c.value_mbps);
  std::vector<int> core_to_slot(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    core_to_slot[static_cast<std::size_t>(c)] = c;
  }
  std::vector<int> slot_to_core(static_cast<std::size_t>(mesh->num_slots()),
                                -1);
  for (std::size_t c = 0; c < core_to_slot.size(); ++c) {
    slot_to_core[static_cast<std::size_t>(core_to_slot[c])] =
        static_cast<int>(c);
  }
  route::RoutingSession session;
  session.reset(demands, 2);
  route::LoadMap loads(mesh->switch_graph().num_edges());
  std::vector<route::CommodityEndpoints> ends(commodities.size());
  const auto refresh_ends = [&] {
    for (std::size_t k = 0; k < commodities.size(); ++k) {
      ends[k] = route::CommodityEndpoints{
          core_to_slot[static_cast<std::size_t>(commodities[k].src_core)],
          core_to_slot[static_cast<std::size_t>(commodities[k].dst_core)]};
    }
  };
  refresh_ends();
  session.solve(engine, ends, loads, /*speculative=*/false);
  SwapSequence sequence(mesh->num_slots());
  for (auto _ : state) {
    const auto [a, b] = sequence.next();
    mapping::apply_slot_swap(a, b, core_to_slot, slot_to_core);
    refresh_ends();
    session.solve(engine, ends, loads, /*speculative=*/true);
    benchmark::DoNotOptimize(loads.max_load());
    session.pop();
    mapping::apply_slot_swap(a, b, core_to_slot, slot_to_core);
  }
}
BENCHMARK(BM_RoutingSessionSpeculativeSwap)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Probe probe("routing_incremental", argc, argv);
  const Workloads workloads;

  bench::print_heading(
      "Routing session probe: speculative solve + commit|pop vs from-scratch "
      "canonical loop (bit-identical by contract)");
  std::vector<ProbeRow> session_rows;
  util::Table table({"leg", "from-scratch ms", "session ms", "speedup",
                     "snap", "gated", "bit-identical"});
  bool all_identical = true;
  double mp_scratch = 0.0, mp_incremental = 0.0;
  double sa_scratch = 0.0, sa_incremental = 0.0;
  for (const auto& leg : make_session_legs(workloads)) {
    auto row = run_session_probe(leg);
    all_identical = all_identical && row.bit_identical;
    if (leg.gated_2x) {
      if (leg.kind == route::RoutingKind::kMinPath) {
        mp_scratch += row.from_scratch_ms;
        mp_incremental += row.incremental_ms;
      } else {
        sa_scratch += row.from_scratch_ms;
        sa_incremental += row.incremental_ms;
      }
    }
    table.add_row({row.key, util::Table::num(row.from_scratch_ms, 1),
                   util::Table::num(row.incremental_ms, 1),
                   util::Table::num(row.speedup(), 2) + "x",
                   util::Table::num(100.0 * row.snapshot_rate, 0) + "%",
                   row.gated_2x ? "2x" : "-",
                   row.bit_identical ? "yes" : "NO"});
    session_rows.push_back(std::move(row));
  }
  const double mp_speedup =
      mp_incremental > 0.0 ? mp_scratch / mp_incremental : 0.0;
  const double sa_speedup =
      sa_incremental > 0.0 ? sa_scratch / sa_incremental : 0.0;
  std::printf("%sgated exploration aggregate: %.2fx minimum-path, %.2fx "
              "split-all (bar: 2x each)\n",
              table.to_string().c_str(), mp_speedup, sa_speedup);

  bench::print_heading(
      "Evaluation probe: DeltaTxn walk vs the same walk through "
      "Mapper::evaluate (informational timing; identity gated)");
  std::vector<ProbeRow> eval_rows;
  util::Table eval_table({"leg", "Mapper::evaluate ms", "DeltaTxn ms",
                          "speedup", "bit-identical"});
  for (const auto& leg : make_eval_legs(workloads)) {
    auto row = run_eval_probe(leg);
    all_identical = all_identical && row.bit_identical;
    eval_table.add_row({row.key, util::Table::num(row.from_scratch_ms, 1),
                        util::Table::num(row.incremental_ms, 1),
                        util::Table::num(row.speedup(), 2) + "x",
                        row.bit_identical ? "yes" : "NO"});
    eval_rows.push_back(std::move(row));
  }
  std::printf("%s", eval_table.to_string().c_str());

  probe.invariant("routing_bit_identical", all_identical);
  probe.invariant("routing_incremental_2x",
                  mp_speedup >= 2.0 && sa_speedup >= 2.0);
  probe.metric("session_speedup_minpath", mp_speedup);
  probe.metric("session_speedup_splitall", sa_speedup);
  for (const auto& [table, suffix, rows] :
       {std::tuple{"session_probe", "_session", &session_rows},
        std::tuple{"eval_probe", "_eval", &eval_rows}}) {
    for (const auto& row : *rows) {
      probe.row(table, {{"run", row.key},
                        {"from_scratch_ms", row.from_scratch_ms},
                        {"incremental_ms", row.incremental_ms},
                        {"speedup", row.speedup()},
                        {"gated_2x", row.gated_2x},
                        {"bit_identical", row.bit_identical}});
      probe.sub_benchmark(row.key + suffix, row.incremental_ms);
    }
  }
  const int status = probe.finish();
  if (status != 0) return status;
  return sunmap::bench::run_benchmarks(argc, argv);
}
