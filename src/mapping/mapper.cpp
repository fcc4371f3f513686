#include "mapping/mapper.h"

#include "mapping/eval_context.h"
#include "mapping/search_strategy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace sunmap::mapping {

const char* to_string(Objective objective) {
  switch (objective) {
    case Objective::kMinDelay:
      return "min-delay";
    case Objective::kMinArea:
      return "min-area";
    case Objective::kMinPower:
      return "min-power";
    case Objective::kWeighted:
      return "weighted";
  }
  return "?";
}

const char* to_string(SearchKind kind) {
  switch (kind) {
    case SearchKind::kGreedySwaps:
      return "greedy-swaps";
    case SearchKind::kAnnealing:
      return "annealing";
    case SearchKind::kRestartAnnealing:
      return "restart-annealing";
  }
  return "?";
}

const char* to_string(SimTraffic traffic) {
  switch (traffic) {
    case SimTraffic::kTrace:
      return "trace";
    case SimTraffic::kBursty:
      return "bursty";
  }
  return "?";
}

bool better_than(const Evaluation& a, const Evaluation& b) {
  if (a.feasible() != b.feasible()) return a.feasible();
  if (a.feasible()) return a.cost < b.cost;
  // Both infeasible: prefer the one closer to satisfying bandwidth, then
  // the cheaper one.
  if (a.max_link_load_mbps != b.max_link_load_mbps) {
    return a.max_link_load_mbps < b.max_link_load_mbps;
  }
  return a.cost < b.cost;
}

void apply_fault_objective(Evaluation& eval, const MapperConfig& config) {
  eval.worst_fault_cost = 0.0;
  eval.infeasible_fault_scenarios = 0;
  if (eval.fault_outcomes.empty()) return;

  // Admissibility: every path below keeps the aggregate >= the fault-free
  // lower bounds prunable() uses. Degraded routes live on a subgraph of the
  // pristine topology, so degraded hops >= the minimal-hop bound and
  // degraded power (same wire arithmetic) >= the energy bound; the area is
  // fault-invariant; a disconnected scenario contributes penalty x base
  // with penalty >= 1 (validated); and both max() and the mean of terms
  // each >= the bound stay >= the bound.
  const double base_cost = eval.cost;
  double worst = base_cost;
  double worst_scenario = 0.0;
  double sum = base_cost;
  for (auto& outcome : eval.fault_outcomes) {
    double cost = 0.0;
    if (!outcome.connected) {
      ++eval.infeasible_fault_scenarios;
      cost = config.faults.infeasible_penalty * base_cost;
    } else {
      switch (config.objective) {
        case Objective::kMinDelay:
          cost = outcome.avg_switch_hops;
          break;
        case Objective::kMinArea:
          cost = eval.design_area_mm2;  // faults do not move the floorplan
          break;
        case Objective::kMinPower:
          cost = outcome.dynamic_power_mw + eval.static_power_mw;
          break;
        case Objective::kWeighted:
          cost = config.weights.cost(
              outcome.avg_switch_hops, eval.design_area_mm2,
              outcome.dynamic_power_mw + eval.static_power_mw);
          break;
      }
    }
    outcome.cost = cost;
    worst_scenario = std::max(worst_scenario, cost);
    worst = std::max(worst, cost);
    sum += cost;
  }
  eval.worst_fault_cost = worst_scenario;
  eval.cost = config.faults.aggregation == fault::Aggregation::kWeighted
                  ? sum / static_cast<double>(eval.fault_outcomes.size() + 1)
                  : worst;
}

void MapperConfig::validate() const {
  // Every message carries the offending value: a sweep rejects one design
  // point out of hundreds, and "swap_passes must be >= 0" without the value
  // forces the caller to reconstruct which axis produced it.
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("MapperConfig: " + what);
  };
  const auto num = [](double value) { return std::to_string(value); };
  if (!(link_bandwidth_mbps > 0.0)) {
    fail("link bandwidth must be positive, got " + num(link_bandwidth_mbps));
  }
  if (!(max_area_mm2 > 0.0)) {
    fail("max_area_mm2 must be positive, got " + num(max_area_mm2));
  }
  if (swap_passes < 0) {
    fail("swap_passes must be >= 0, got " + std::to_string(swap_passes));
  }
  if (reroute_passes < 0) {
    fail("reroute_passes must be >= 0, got " + std::to_string(reroute_passes));
  }
  if (annealing_iterations < 0) {
    fail("annealing_iterations must be >= 0, got " +
         std::to_string(annealing_iterations));
  }
  if (annealing_restarts < 1) {
    fail("annealing_restarts must be >= 1, got " +
         std::to_string(annealing_restarts));
  }
  // Each restart holds a chain outcome; a chain past the budget would run
  // no iteration, so the budget bounds the memory one request can claim.
  if (annealing_restarts > std::max(1, annealing_iterations)) {
    fail("annealing_restarts must be <= max(1, annealing_iterations) = " +
         std::to_string(std::max(1, annealing_iterations)) + ", got " +
         std::to_string(annealing_restarts));
  }
  if (annealing_reheats < 0) {
    fail("annealing_reheats must be >= 0, got " +
         std::to_string(annealing_reheats));
  }
  // Reheats past the budget only collapse onto points already taken, and
  // the chain computes every one before its first iteration.
  if (annealing_reheats > annealing_iterations) {
    fail("annealing_reheats must be <= annealing_iterations = " +
         std::to_string(annealing_iterations) + ", got " +
         std::to_string(annealing_reheats));
  }
  if (sim_seed == 0) {
    fail("sim_seed must be >= 1 (0 is reserved as \"not a seed\"), got 0");
  }
  if (!(sim_burst_len >= 1.0) || !std::isfinite(sim_burst_len)) {
    fail("sim_burst_len must be finite and >= 1 cycle, got " +
         num(sim_burst_len));
  }
  if (!(sim_burst_duty > 0.0 && sim_burst_duty < 1.0)) {
    fail("sim_burst_duty must be in (0, 1), got " + num(sim_burst_duty));
  }
  if (floorplan.sizing_passes < 0) {
    fail("floorplan sizing_passes must be >= 0, got " +
         std::to_string(floorplan.sizing_passes));
  }
  if (!(floorplan.spacing_mm >= 0.0)) {
    fail("floorplan spacing_mm must be >= 0, got " +
         num(floorplan.spacing_mm));
  }
  const auto weight_ok = [](double w) { return w >= 0.0 && std::isfinite(w); };
  if (!(weight_ok(weights.delay) && weight_ok(weights.area) &&
        weight_ok(weights.power))) {
    fail("objective weights must be finite and >= 0, got delay=" +
         num(weights.delay) + " area=" + num(weights.area) +
         " power=" + num(weights.power));
  }
  faults.validate();
}

Mapper::Mapper(MapperConfig config)
    : config_(std::move(config)), library_(config_.tech) {
  config_.validate();
}

EvalContext Mapper::make_context(const CoreGraph& app,
                                 const topo::Topology& topology) const {
  return EvalContext(app, topology, config_, library_);
}

Evaluation Mapper::evaluate(const CoreGraph& app,
                            const topo::Topology& topology,
                            const std::vector<int>& core_to_slot) const {
  if (static_cast<int>(core_to_slot.size()) != app.num_cores()) {
    throw std::invalid_argument("Mapper::evaluate: mapping size mismatch");
  }
  std::vector<int> slot_to_core(static_cast<std::size_t>(topology.num_slots()),
                                -1);
  for (int core = 0; core < app.num_cores(); ++core) {
    const int slot = core_to_slot[static_cast<std::size_t>(core)];
    if (slot < 0 || slot >= topology.num_slots()) {
      throw std::invalid_argument("Mapper::evaluate: slot out of range");
    }
    if (slot_to_core[static_cast<std::size_t>(slot)] != -1) {
      throw std::invalid_argument("Mapper::evaluate: mapping not injective");
    }
    slot_to_core[static_cast<std::size_t>(slot)] = core;
  }

  Evaluation eval;

  // ---- Fig 5 steps 2-6: route commodities in decreasing value order. ----
  const auto commodities = commodities_by_value(app);
  route::RoutingEngine::Options engine_options;
  engine_options.split_chunks = MapperConfig::split_chunks;
  engine_options.capacity_hint_mbps = config_.link_bandwidth_mbps;
  route::RoutingEngine engine(topology, config_.routing, engine_options);
  route::LoadMap loads(topology.switch_graph().num_edges());
  eval.routes.reserve(commodities.size());

  for (const auto& commodity : commodities) {
    const int src_slot =
        core_to_slot[static_cast<std::size_t>(commodity.src_core)];
    const int dst_slot =
        core_to_slot[static_cast<std::size_t>(commodity.dst_core)];
    route::RouteSet& routes = eval.routes.emplace_back();
    engine.route(src_slot, dst_slot, commodity.value_mbps, loads, routes);
    loads.add_route(routes, commodity.value_mbps);
  }

  // Rip-up-and-reroute refinement for the load-adaptive routing functions:
  // re-routing against the traffic that stays spreads the heavy flows far
  // better than one greedy sequential pass.
  const bool adaptive = config_.routing == route::RoutingKind::kMinPath ||
                        config_.routing == route::RoutingKind::kSplitAll;
  if (adaptive) {
    for (int pass = 0; pass < config_.reroute_passes; ++pass) {
      for (std::size_t k = 0; k < commodities.size(); ++k) {
        const auto& commodity = commodities[k];
        const int src_slot =
            core_to_slot[static_cast<std::size_t>(commodity.src_core)];
        const int dst_slot =
            core_to_slot[static_cast<std::size_t>(commodity.dst_core)];
        loads.remove_route(eval.routes[k], commodity.value_mbps);
        engine.route(src_slot, dst_slot, commodity.value_mbps, loads,
                     eval.routes[k]);
        loads.add_route(eval.routes[k], commodity.value_mbps);
      }
    }
  }

  double weighted_hops = 0.0;
  double total_value = 0.0;
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    weighted_hops +=
        commodities[k].value_mbps * eval.routes[k].weighted_switch_hops();
    total_value += commodities[k].value_mbps;
  }
  eval.avg_switch_hops = total_value > 0.0 ? weighted_hops / total_value : 0.0;
  eval.max_link_load_mbps = loads.max_load();
  eval.bandwidth_feasible =
      eval.max_link_load_mbps <= config_.link_bandwidth_mbps + 1e-9;

  // ---- Fig 5 step 7: floorplan and area/power estimation. ----
  std::vector<std::optional<fplan::BlockShape>> core_shapes(
      static_cast<std::size_t>(topology.num_slots()));
  for (int slot = 0; slot < topology.num_slots(); ++slot) {
    const int core = slot_to_core[static_cast<std::size_t>(slot)];
    if (core >= 0) core_shapes[static_cast<std::size_t>(slot)] =
        app.core(core).shape;
  }
  std::vector<fplan::BlockShape> switch_shapes;
  switch_shapes.reserve(static_cast<std::size_t>(topology.num_switches()));
  eval.switch_area_mm2 = 0.0;
  eval.static_power_mw = 0.0;
  for (graph::NodeId sw = 0; sw < topology.num_switches(); ++sw) {
    const auto& entry = library_.lookup(topology.switch_in_ports(sw),
                                        topology.switch_out_ports(sw));
    eval.switch_area_mm2 += entry.area_mm2;
    eval.static_power_mw += entry.static_power_mw;
    auto shape = fplan::BlockShape::soft_block(entry.area_mm2);
    shape.min_aspect = 0.5;
    shape.max_aspect = 2.0;
    switch_shapes.push_back(shape);
  }

  fplan::Floorplanner planner(config_.floorplan);
  eval.floorplan = planner.place(topology.relative_placement(), core_shapes,
                                 switch_shapes);
  eval.design_area_mm2 = eval.floorplan.area_mm2();
  eval.area_feasible =
      eval.design_area_mm2 <= config_.max_area_mm2 + 1e-9 &&
      eval.floorplan.aspect() <= kMaxDesignAspect + 1e-9;

  // Power: every commodity contributes rate x (switch energies + link wire
  // energies) along each of its weighted paths, including the core-to-switch
  // attachment links whose lengths come from the floorplan.
  const auto& g = topology.switch_graph();
  const double link_e = library_.link_energy_pj_per_bit_mm();
  const double wire_ps_per_mm = config_.tech.link_delay_ps_per_mm;
  const double cycle_ps = config_.tech.clock_period_ps;
  using Kind = fplan::PlacedBlock::Kind;
  double power_mw = 0.0;
  double weighted_latency_ps = 0.0;
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const auto& commodity = commodities[k];
    const int src_slot =
        core_to_slot[static_cast<std::size_t>(commodity.src_core)];
    const int dst_slot =
        core_to_slot[static_cast<std::size_t>(commodity.dst_core)];
    double energy_pj = 0.0;   // fraction-weighted energy per bit
    double latency_ps = 0.0;  // fraction-weighted head latency
    for (const auto& wp : eval.routes[k].paths) {
      double path_pj = 0.0;
      double wire_mm = 0.0;
      for (graph::NodeId sw : wp.path.nodes) {
        path_pj += library_
                       .lookup(topology.switch_in_ports(sw),
                               topology.switch_out_ports(sw))
                       .energy_pj_per_bit;
      }
      for (graph::EdgeId e : wp.path.edges) {
        wire_mm += eval.floorplan.center_distance_mm(
            Kind::kSwitch, g.edge(e).src, Kind::kSwitch, g.edge(e).dst);
      }
      wire_mm += eval.floorplan.center_distance_mm(
          Kind::kCore, src_slot, Kind::kSwitch,
          topology.ingress_switch(src_slot));
      wire_mm += eval.floorplan.center_distance_mm(
          Kind::kCore, dst_slot, Kind::kSwitch,
          topology.egress_switch(dst_slot));
      path_pj += link_e * wire_mm;
      energy_pj += wp.fraction * path_pj;
      // One pipeline cycle per switch plus repeated-wire delay.
      latency_ps += wp.fraction *
                    (static_cast<double>(wp.path.nodes.size()) * cycle_ps +
                     wire_mm * wire_ps_per_mm);
    }
    // MB/s * pJ/bit -> mW (1e6 * 8 * 1e-12 * 1e3).
    power_mw += commodity.value_mbps * 8e-3 * energy_pj;
    weighted_latency_ps += commodity.value_mbps * latency_ps;
  }
  eval.dynamic_power_mw = power_mw;
  eval.design_power_mw = eval.dynamic_power_mw + eval.static_power_mw;
  eval.avg_path_latency_ns =
      total_value > 0.0 ? weighted_latency_ps / total_value / 1000.0 : 0.0;

  // ---- Degraded modes: re-route every commodity under each fault scenario.
  // This is the from-scratch reference of the fault evaluation: scenarios
  // materialized per call, one masked BFS per (scenario, commodity). The
  // cached EvalContext path reads the same BFS routes from its bind-time
  // path table and sums them in this walk's order, so both are
  // bit-identical.
  const auto fault_scenarios =
      fault::materialize(config_.faults.spec, topology);
  if (!fault_scenarios.empty()) {
    fault::ScenarioMask mask;
    fault::MaskedBfs bfs;
    graph::Path fpath;
    eval.fault_outcomes.resize(fault_scenarios.size());
    for (std::size_t s = 0; s < fault_scenarios.size(); ++s) {
      fault::make_mask(g, fault_scenarios[s], mask);
      auto& outcome = eval.fault_outcomes[s];
      outcome = Evaluation::FaultScenarioOutcome{};
      double fault_hops = 0.0;
      double fault_power_mw = 0.0;
      for (const auto& commodity : commodities) {
        const int src_slot =
            core_to_slot[static_cast<std::size_t>(commodity.src_core)];
        const int dst_slot =
            core_to_slot[static_cast<std::size_t>(commodity.dst_core)];
        const graph::NodeId ingress = topology.ingress_switch(src_slot);
        const graph::NodeId egress = topology.egress_switch(dst_slot);
        fault::masked_bfs(g, ingress, mask, bfs);
        if (!fault::extract_path(g, bfs, ingress, egress, fpath)) {
          // Disconnected (or a dead attachment switch): the scenario is
          // infeasible — documented graceful degradation, never a throw.
          outcome.connected = false;
          continue;
        }
        fault_hops += commodity.value_mbps *
                      static_cast<double>(fpath.nodes.size());
        double path_pj = 0.0;
        double wire_mm = 0.0;
        for (const graph::NodeId sw : fpath.nodes) {
          path_pj += library_
                         .lookup(topology.switch_in_ports(sw),
                                 topology.switch_out_ports(sw))
                         .energy_pj_per_bit;
        }
        for (const graph::EdgeId e : fpath.edges) {
          wire_mm += eval.floorplan.center_distance_mm(
              Kind::kSwitch, g.edge(e).src, Kind::kSwitch, g.edge(e).dst);
        }
        wire_mm += eval.floorplan.center_distance_mm(Kind::kCore, src_slot,
                                                     Kind::kSwitch, ingress);
        wire_mm += eval.floorplan.center_distance_mm(Kind::kCore, dst_slot,
                                                     Kind::kSwitch, egress);
        path_pj += link_e * wire_mm;
        fault_power_mw += commodity.value_mbps * 8e-3 * path_pj;
      }
      outcome.avg_switch_hops =
          total_value > 0.0 ? fault_hops / total_value : 0.0;
      outcome.dynamic_power_mw = fault_power_mw;
    }
  }

  // ---- Fig 5 step 8: objective cost. ----
  switch (config_.objective) {
    case Objective::kMinDelay:
      eval.cost = eval.avg_switch_hops;
      break;
    case Objective::kMinArea:
      eval.cost = eval.design_area_mm2;
      break;
    case Objective::kMinPower:
      eval.cost = eval.design_power_mw;
      break;
    case Objective::kWeighted:
      eval.cost = config_.weights.cost(eval.avg_switch_hops,
                                       eval.design_area_mm2,
                                       eval.design_power_mw);
      break;
  }
  apply_fault_objective(eval, config_);
  return eval;
}

std::vector<int> Mapper::greedy_initial_mapping(
    const CoreGraph& app, const topo::Topology& topology) const {
  const int num_cores = app.num_cores();
  const int num_slots = topology.num_slots();
  std::vector<int> core_to_slot(static_cast<std::size_t>(num_cores), -1);
  std::vector<bool> slot_used(static_cast<std::size_t>(num_slots), false);
  std::vector<bool> placed(static_cast<std::size_t>(num_cores), false);

  // Core with the maximum communication goes first...
  int first_core = 0;
  for (int c = 1; c < num_cores; ++c) {
    if (app.core_traffic_mbps(c) > app.core_traffic_mbps(first_core)) {
      first_core = c;
    }
  }
  // ...onto the slot whose ingress switch has the most neighbours.
  int first_slot = 0;
  for (int s = 1; s < num_slots; ++s) {
    if (topology.switch_graph().degree(topology.ingress_switch(s)) >
        topology.switch_graph().degree(topology.ingress_switch(first_slot))) {
      first_slot = s;
    }
  }
  core_to_slot[static_cast<std::size_t>(first_core)] = first_slot;
  slot_used[static_cast<std::size_t>(first_slot)] = true;
  placed[static_cast<std::size_t>(first_core)] = true;

  const auto& cg = app.graph();
  for (int step = 1; step < num_cores; ++step) {
    // Unplaced core communicating the most with the placed set.
    int best_core = -1;
    double best_comm = -1.0;
    for (int c = 0; c < num_cores; ++c) {
      if (placed[static_cast<std::size_t>(c)]) continue;
      double comm = 0.0;
      for (graph::EdgeId e : cg.out_edges(c)) {
        if (placed[static_cast<std::size_t>(cg.edge(e).dst)]) {
          comm += cg.edge(e).weight;
        }
      }
      for (graph::EdgeId e : cg.in_edges(c)) {
        if (placed[static_cast<std::size_t>(cg.edge(e).src)]) {
          comm += cg.edge(e).weight;
        }
      }
      if (comm > best_comm) {
        best_comm = comm;
        best_core = c;
      }
    }

    // Slot minimising communication-weighted hop distance to placed cores;
    // the first free slot when every cost is +inf (rates near DBL_MAX
    // overflow the product), so a placement always exists.
    int best_slot = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int s = 0; s < num_slots; ++s) {
      if (slot_used[static_cast<std::size_t>(s)]) continue;
      double cost = 0.0;
      for (graph::EdgeId e : cg.out_edges(best_core)) {
        const int other = cg.edge(e).dst;
        if (!placed[static_cast<std::size_t>(other)]) continue;
        cost += cg.edge(e).weight *
                topology.min_switch_hops(
                    s, core_to_slot[static_cast<std::size_t>(other)]);
      }
      for (graph::EdgeId e : cg.in_edges(best_core)) {
        const int other = cg.edge(e).src;
        if (!placed[static_cast<std::size_t>(other)]) continue;
        cost += cg.edge(e).weight *
                topology.min_switch_hops(
                    core_to_slot[static_cast<std::size_t>(other)], s);
      }
      if (best_slot < 0 || cost < best_cost) {
        best_cost = cost;
        best_slot = s;
      }
    }

    core_to_slot[static_cast<std::size_t>(best_core)] = best_slot;
    slot_used[static_cast<std::size_t>(best_slot)] = true;
    placed[static_cast<std::size_t>(best_core)] = true;
  }
  return core_to_slot;
}

MappingResult Mapper::map(const CoreGraph& app,
                          const topo::Topology& topology) const {
  const EvalContext ctx = make_context(app, topology);
  EvalScratch scratch;
  return map(ctx, scratch);
}

MappingResult Mapper::map(const EvalContext& ctx, EvalScratch& scratch) const {
  const CoreGraph& app = ctx.app();
  const topo::Topology& topology = ctx.topology();
  // The context's config copy governs the whole run — evaluation *and*
  // search — so a context built from a differently-configured mapper cannot
  // end up half-evaluated under one config and half-searched under another
  // (pruning and explored-mapping collection must agree, for one).
  const MapperConfig& cfg = ctx.config();
  if (app.num_cores() > topology.num_slots()) {
    throw std::invalid_argument(
        "Mapper: application has more cores than the topology has slots");
  }
  if (app.num_cores() < 2) {
    throw std::invalid_argument("Mapper: need at least two cores");
  }

  MappingResult result;
  result.core_to_slot = greedy_initial_mapping(app, topology);
  result.eval = ctx.evaluate(result.core_to_slot, scratch,
                             /*materialize=*/false);
  result.evaluated_mappings = 1;
  if (cfg.collect_explored) {
    result.explored_area_power.emplace_back(result.eval.design_area_mm2,
                                            result.eval.design_power_mw);
  }

  make_search_strategy(cfg.search)->improve(ctx, result, scratch);

  // The search ranks light evaluations by their scalars; only the winner
  // needs its floorplan and routes.
  result.eval = ctx.evaluate(result.core_to_slot, scratch,
                             /*materialize=*/true);

  result.slot_to_core.assign(static_cast<std::size_t>(topology.num_slots()),
                             -1);
  for (int c = 0; c < app.num_cores(); ++c) {
    result.slot_to_core[static_cast<std::size_t>(
        result.core_to_slot[static_cast<std::size_t>(c)])] = c;
  }
  return result;
}

}  // namespace sunmap::mapping
