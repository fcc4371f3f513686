#include "mapping/eval_context.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <stdexcept>

namespace sunmap::mapping {

namespace {

std::atomic<std::uint64_t> g_contexts_built{0};
std::atomic<std::uint64_t> g_metrics_hits{0};
std::atomic<std::uint64_t> g_metrics_misses{0};
std::atomic<std::uint64_t> g_floorplan_hits{0};
std::atomic<std::uint64_t> g_floorplan_misses{0};

/// True when two configs produce identical route sets (and hence identical
/// evaluation metrics) for every mapping, i.e. the metrics cache carries
/// over. Objective, weights, area cap, and the bandwidth *threshold* are
/// deliberately absent: they only enter the cost/feasibility fields, which
/// are re-derived per config. The bandwidth matters for routing only under
/// split-across-all-paths, where it caps per-chunk spreading.
bool same_evaluation_class(const MapperConfig& a, const MapperConfig& b) {
  if (a.routing != b.routing) return false;
  if (a.reroute_passes != b.reroute_passes) return false;
  if (a.routing == route::RoutingKind::kSplitAll &&
      a.link_bandwidth_mbps != b.link_bandwidth_mbps) {
    return false;
  }
  // The raw per-scenario degraded metrics cached alongside the fault-free
  // ones depend on which scenarios exist (aggregation mode and penalty do
  // not — they only enter the re-derived cost — but the spec does).
  if (!(a.faults.spec == b.faults.spec)) return false;
  return true;
}

double manhattan(double ax, double ay, double bx, double by) {
  return std::abs(ax - bx) + std::abs(ay - by);
}

}  // namespace

std::uint64_t EvalContext::contexts_built() {
  return g_contexts_built.load(std::memory_order_relaxed);
}

EvalContext::CacheStats EvalContext::cache_stats() {
  CacheStats stats;
  stats.metrics_hits = g_metrics_hits.load(std::memory_order_relaxed);
  stats.metrics_misses = g_metrics_misses.load(std::memory_order_relaxed);
  stats.floorplan_hits = g_floorplan_hits.load(std::memory_order_relaxed);
  stats.floorplan_misses = g_floorplan_misses.load(std::memory_order_relaxed);
  return stats;
}

EvalContext::EvalContext(const CoreGraph& app, const topo::Topology& topology,
                         const MapperConfig& config,
                         const model::AreaPowerLibrary& library)
    : app_(app),
      topology_(topology),
      commodities_(commodities_by_value(app)),
      placement_(topology.relative_placement()) {
  // Accumulated in commodity order, matching the summation order of the
  // from-scratch evaluator.
  for (const auto& commodity : commodities_) {
    total_value_ += commodity.value_mbps;
  }

  // Group cores by bit-identical floorplan shapes: mappings that only
  // permute same-shaped cores yield the same floorplan, so the floorplan
  // cache keys on the per-slot shape class rather than the core identity.
  core_shape_class_.reserve(static_cast<std::size_t>(app.num_cores()));
  for (int core = 0; core < app.num_cores(); ++core) {
    const auto& shape = app.core(core).shape;
    std::uint16_t cls = 0;
    for (; cls < class_shapes_.size(); ++cls) {
      if (class_shapes_[cls] == shape) break;
    }
    if (cls == class_shapes_.size()) class_shapes_.push_back(shape);
    core_shape_class_.push_back(cls);
  }

  context_id_ = g_contexts_built.fetch_add(1, std::memory_order_relaxed) + 1;
  bind(config, library, /*first_bind=*/true);
}

void EvalContext::rebind(const MapperConfig& config,
                         const model::AreaPowerLibrary& library) {
  bind(config, library, /*first_bind=*/false);
}

void EvalContext::bind(const MapperConfig& config,
                       const model::AreaPowerLibrary& library,
                       bool first_bind) {
  const bool tech_changed = first_bind || !(config_.tech == config.tech);
  const bool floorplan_changed =
      tech_changed || !(config_.floorplan == config.floorplan);
  const bool evaluation_class_changed =
      floorplan_changed || !same_evaluation_class(config_, config);
  const bool faults_changed =
      first_bind || !(config_.faults.spec == config.faults.spec);

  if (tech_changed) {
    // Resolve the area/power library once per switch instead of per lookup
    // in the evaluator's inner loops, and pre-sum the mapping-invariant
    // totals.
    std::vector<std::pair<int, int>> switch_ports;
    switch_ports.reserve(static_cast<std::size_t>(topology_.num_switches()));
    for (graph::NodeId sw = 0; sw < topology_.num_switches(); ++sw) {
      switch_ports.emplace_back(topology_.switch_in_ports(sw),
                                topology_.switch_out_ports(sw));
    }
    switch_table_ = model::ResolvedSwitchTable(library, switch_ports);

    switch_shapes_.clear();
    switch_shapes_.reserve(static_cast<std::size_t>(topology_.num_switches()));
    for (graph::NodeId sw = 0; sw < topology_.num_switches(); ++sw) {
      auto shape =
          fplan::BlockShape::soft_block(switch_table_.entry(sw).area_mm2);
      shape.min_aspect = 0.5;
      shape.max_aspect = 2.0;
      switch_shapes_.push_back(shape);
    }
  }
  if (floorplan_changed) {
    // Scratch-owned floorplan sessions were resolved against the old
    // options/switch shapes; moving the epoch makes every scratch rebuild
    // its session on next use.
    ++session_epoch_;
    std::unique_lock<std::shared_mutex> lock(cache_mutex_);
    floorplan_cache_.clear();
  }
  if (evaluation_class_changed) {
    // Scratch routing sessions hold routes of the old evaluation class;
    // moving the epoch makes every scratch rebuild on next use.
    ++routing_epoch_;
    std::unique_lock<std::shared_mutex> lock(cache_mutex_);
    metrics_cache_.clear();
  }

  config_ = config;

  route::RoutingEngine::Options engine_options;
  engine_options.split_chunks = MapperConfig::split_chunks;
  engine_options.capacity_hint_mbps = config_.link_bandwidth_mbps;
  if (config_.routing == route::RoutingKind::kMinPath) {
    // Topology-only: built on the first minimum-path bind, reused forever.
    if (!quadrant_table_) quadrant_table_.emplace(topology_);
    engine_options.quadrant_table = &*quadrant_table_;
  }
  engine_.emplace(topology_, config_.routing, engine_options);

  static_routing_ = config_.routing == route::RoutingKind::kDimensionOrdered ||
                    config_.routing == route::RoutingKind::kSplitMin;

  if (faults_changed) build_fault_tables();

  static_routes_ = nullptr;
  if (config_.routing == route::RoutingKind::kDimensionOrdered) {
    if (!static_routes_do_) {
      static_routes_do_.emplace();
      build_static_routes(*static_routes_do_);
    }
    static_routes_ = &*static_routes_do_;
  } else if (config_.routing == route::RoutingKind::kSplitMin) {
    if (!static_routes_sm_) {
      static_routes_sm_.emplace();
      build_static_routes(*static_routes_sm_);
    }
    static_routes_ = &*static_routes_sm_;
  }

  // The bound envelope is pure geometry over the placement, shape classes,
  // and resolved switch shapes: it only moves when the technology point or
  // the floorplan options do. The per-slot-pair power-bound table also
  // folds in per-link wire bounds, so it shares the same validity; it is
  // only (re)built when the bound objective can actually use it.
  if (tech_changed || floorplan_changed) {
    build_bound_envelope();
    power_bound_valid_ = false;
  }
  const bool needs_power_bound =
      supports_pruning() && (config_.objective == Objective::kMinPower ||
                             config_.objective == Objective::kWeighted);
  if (needs_power_bound && !power_bound_valid_) build_power_bound_table();
}

void EvalContext::build_static_routes(
    std::vector<route::RouteSet>& table) const {
  // Dimension-ordered and split-across-minimum-paths routes depend only on
  // the slot pair, never on link loads, so every candidate mapping draws its
  // routes from this table. This is what makes re-routing after a pairwise
  // swap a delta operation: only the commodities touching the two swapped
  // slots change which table entry they reference.
  const int num_slots = topology_.num_slots();
  table.resize(static_cast<std::size_t>(num_slots) *
               static_cast<std::size_t>(num_slots));
  const route::LoadMap no_loads(topology_.switch_graph().num_edges());
  for (int src = 0; src < num_slots; ++src) {
    for (int dst = 0; dst < num_slots; ++dst) {
      if (src == dst) continue;
      engine_->route(src, dst, /*demand=*/0.0, no_loads,
                     table[static_cast<std::size_t>(src) *
                               static_cast<std::size_t>(num_slots) +
                           static_cast<std::size_t>(dst)]);
    }
  }
}

void EvalContext::build_fault_tables() {
  fault_scenarios_ = fault::materialize(config_.faults.spec, topology_);
  fault_paths_ = DegradedPaths{};
  if (fault_scenarios_.empty()) return;

  const auto& g = topology_.switch_graph();

  auto& paths = fault_paths_;
  const auto num_switches = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::int32_t> row_of(num_switches, -1);
  std::vector<std::int32_t> col_of(num_switches, -1);
  std::vector<graph::NodeId> ingress_switches;
  for (int slot = 0; slot < topology_.num_slots(); ++slot) {
    const auto in = static_cast<std::size_t>(topology_.ingress_switch(slot));
    const auto out = static_cast<std::size_t>(topology_.egress_switch(slot));
    if (row_of[in] < 0) {
      row_of[in] = paths.rows++;
      ingress_switches.push_back(static_cast<graph::NodeId>(in));
    }
    if (col_of[out] < 0) col_of[out] = paths.cols++;
    paths.slot_row.push_back(row_of[in]);
    paths.slot_col.push_back(col_of[out]);
  }
  paths.id.assign(fault_scenarios_.size() *
                      static_cast<std::size_t>(paths.rows) *
                      static_cast<std::size_t>(paths.cols),
                  -1);

  // Trie children as sibling lists; only the build looks children up.
  std::vector<std::int32_t> first_child;
  std::vector<std::int32_t> next_sibling;
  const auto add_path = [&](std::int32_t parent, graph::EdgeId edge,
                            graph::NodeId node) {
    const auto id = static_cast<std::int32_t>(paths.parent.size());
    paths.parent.push_back(parent);
    paths.edge.push_back(edge);
    paths.node.push_back(node);
    paths.num_nodes.push_back(
        parent < 0 ? 1
                   : paths.num_nodes[static_cast<std::size_t>(parent)] + 1);
    first_child.push_back(-1);
    next_sibling.push_back(-1);
    if (parent >= 0) {
      next_sibling.back() = first_child[static_cast<std::size_t>(parent)];
      first_child[static_cast<std::size_t>(parent)] = id;
    }
    return id;
  };
  // Ids 0 .. rows-1 are the roots: each ingress switch's single-switch path.
  for (const graph::NodeId in : ingress_switches) {
    add_path(-1, graph::kInvalidEdge, in);
  }

  // One BFS per (scenario, ingress switch). Its visiting order reaches a
  // switch's parent first, so the switch's path — the parent's path plus
  // the parent edge — costs one child lookup, and the same route found
  // under another scenario maps to the same id. The BFS is the one
  // Mapper::evaluate runs per commodity, so both read the same routes.
  fault::ScenarioMask mask;
  fault::MaskedBfs bfs;
  std::vector<std::int32_t> path_of(num_switches, -1);
  for (std::size_t s = 0; s < fault_scenarios_.size(); ++s) {
    fault::make_mask(g, fault_scenarios_[s], mask);
    for (std::int32_t row = 0; row < paths.rows; ++row) {
      fault::masked_bfs(g, ingress_switches[static_cast<std::size_t>(row)],
                        mask, bfs);
      std::int32_t* ids =
          &paths.id[(s * static_cast<std::size_t>(paths.rows) +
                     static_cast<std::size_t>(row)) *
                    static_cast<std::size_t>(paths.cols)];
      for (const graph::NodeId v : bfs.queue) {
        const auto vi = static_cast<std::size_t>(v);
        std::int32_t id = row;
        const graph::EdgeId e = bfs.parent_edge[vi];
        if (e != graph::kInvalidEdge) {
          const std::int32_t parent =
              path_of[static_cast<std::size_t>(g.edge(e).src)];
          id = first_child[static_cast<std::size_t>(parent)];
          while (id >= 0 && paths.edge[static_cast<std::size_t>(id)] != e) {
            id = next_sibling[static_cast<std::size_t>(id)];
          }
          if (id < 0) id = add_path(parent, e, v);
        }
        path_of[vi] = id;
        if (col_of[vi] >= 0) ids[col_of[vi]] = id;
      }
    }
  }
}

void EvalContext::apply_config_dependent(Evaluation& eval,
                                         double floorplan_aspect) const {
  eval.bandwidth_feasible =
      eval.max_link_load_mbps <= config_.link_bandwidth_mbps + 1e-9;
  eval.area_feasible =
      eval.design_area_mm2 <= config_.max_area_mm2 + 1e-9 &&
      floorplan_aspect <= kMaxDesignAspect + 1e-9;

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
  // Fold the raw degraded metrics (cached alongside the fault-free ones)
  // into the per-scenario and aggregated costs. Shared code with the
  // from-scratch Mapper::evaluate, and re-run on metrics-cache hits, so the
  // hit path re-derives fault costs exactly like the flags above.
  apply_fault_objective(eval, config_);
}

Evaluation EvalContext::evaluate(const std::vector<int>& core_to_slot,
                                 EvalScratch& scratch,
                                 bool materialize) const {
  const int num_cores = app_.num_cores();
  const int num_slots = topology_.num_slots();
  const int num_switches = topology_.num_switches();
  if (static_cast<int>(core_to_slot.size()) != num_cores) {
    throw std::invalid_argument("EvalContext::evaluate: mapping size mismatch");
  }
  scratch.slot_to_core.assign(static_cast<std::size_t>(num_slots), -1);
  for (int core = 0; core < num_cores; ++core) {
    const int slot = core_to_slot[static_cast<std::size_t>(core)];
    if (slot < 0 || slot >= num_slots) {
      throw std::invalid_argument("EvalContext::evaluate: slot out of range");
    }
    if (scratch.slot_to_core[static_cast<std::size_t>(slot)] != -1) {
      throw std::invalid_argument("EvalContext::evaluate: mapping not injective");
    }
    scratch.slot_to_core[static_cast<std::size_t>(slot)] = core;
  }

  // Metrics-cache fast path: the search loops re-visit mappings (across
  // passes, and across the design points of a sweep that share the
  // evaluation class). The cached metrics are config-independent; only the
  // feasibility flags and cost are re-derived below, with the same
  // arithmetic as a fresh evaluation — so hits are bit-identical to misses.
  if (!materialize) {
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    const auto it = metrics_cache_.find(core_to_slot);
    if (it != metrics_cache_.end()) {
      g_metrics_hits.fetch_add(1, std::memory_order_relaxed);
      Evaluation eval = it->second.metrics;
      apply_config_dependent(eval, it->second.floorplan_aspect);
      return eval;
    }
    g_metrics_misses.fetch_add(1, std::memory_order_relaxed);
  }

  Evaluation eval;
  const std::size_t num_commodities = commodities_.size();

  // ---- Fig 5 steps 2-6: route commodities in decreasing value order. ----
  const int num_edges = topology_.switch_graph().num_edges();
  if (scratch.loads.num_edges() != num_edges) {
    scratch.loads = route::LoadMap(num_edges);
  } else {
    scratch.loads.clear();
  }
  scratch.route_refs.resize(num_commodities);

  if (static_routing_) {
    for (std::size_t k = 0; k < num_commodities; ++k) {
      const auto& commodity = commodities_[k];
      const int src_slot =
          core_to_slot[static_cast<std::size_t>(commodity.src_core)];
      const int dst_slot =
          core_to_slot[static_cast<std::size_t>(commodity.dst_core)];
      const route::RouteSet& routes = static_route(src_slot, dst_slot);
      scratch.loads.add_route(routes, commodity.value_mbps);
      scratch.route_refs[k] = &routes;
    }
  } else {
    // MP / split-all: the scratch's routing session runs the canonical loop
    // (or returns its stored result when no endpoint moved). Under an open
    // DeltaTxn the solve is speculative: the displaced state waits in a
    // session frame that rollback pops.
    route::RoutingSession& session = routing_session_for(scratch);
    scratch.commodity_endpoints.resize(num_commodities);
    for (std::size_t k = 0; k < num_commodities; ++k) {
      const auto& commodity = commodities_[k];
      scratch.commodity_endpoints[k] = route::CommodityEndpoints{
          core_to_slot[static_cast<std::size_t>(commodity.src_core)],
          core_to_slot[static_cast<std::size_t>(commodity.dst_core)]};
    }
    session.solve(*engine_, scratch.commodity_endpoints, scratch.loads,
                  /*speculative=*/scratch.txn_depth > 0);
    for (std::size_t k = 0; k < num_commodities; ++k) {
      scratch.route_refs[k] = &session.route(static_cast<int>(k));
    }
  }

  double weighted_hops = 0.0;
  for (std::size_t k = 0; k < num_commodities; ++k) {
    weighted_hops += commodities_[k].value_mbps *
                     scratch.route_refs[k]->weighted_switch_hops();
  }
  eval.avg_switch_hops =
      total_value_ > 0.0 ? weighted_hops / total_value_ : 0.0;
  eval.max_link_load_mbps = scratch.loads.max_load();

  // ---- Fig 5 step 7: floorplan and area/power estimation. ----
  eval.switch_area_mm2 = switch_table_.total_area_mm2();
  eval.static_power_mw = switch_table_.total_static_power_mw();

  // Floorplan cache: the placement depends only on which shapes occupy
  // which slots. place() is deterministic, so a hit reproduces the computed
  // floorplan bit-for-bit; and because the key ignores routing, objective,
  // and constraints, the cache carries floorplans across every design point
  // of a sweep that shares floorplan options and technology. The same
  // helper is the min-area bound's exact phase, so pruned candidates warm
  // the cache for the evaluations that follow.
  const fplan::Floorplan& floorplan =
      floorplan_for_mapping(core_to_slot, scratch);
  eval.design_area_mm2 = floorplan.area_mm2();
  const double floorplan_aspect = floorplan.aspect();

  // Index the placed block centres so every wire length in the power loop is
  // an O(1) lookup (Floorplan::center_distance_mm scans all blocks).
  scratch.core_cx.assign(static_cast<std::size_t>(num_slots), 0.0);
  scratch.core_cy.assign(static_cast<std::size_t>(num_slots), 0.0);
  scratch.switch_cx.assign(static_cast<std::size_t>(num_switches), 0.0);
  scratch.switch_cy.assign(static_cast<std::size_t>(num_switches), 0.0);
  for (const auto& block : floorplan.blocks()) {
    if (block.kind == fplan::PlacedBlock::Kind::kCore) {
      scratch.core_cx[static_cast<std::size_t>(block.index)] = block.cx();
      scratch.core_cy[static_cast<std::size_t>(block.index)] = block.cy();
    } else {
      scratch.switch_cx[static_cast<std::size_t>(block.index)] = block.cx();
      scratch.switch_cy[static_cast<std::size_t>(block.index)] = block.cy();
    }
  }

  // Power and latency: identical arithmetic to the from-scratch evaluator,
  // with the library lookups and block scans replaced by the resolved
  // tables above.
  const auto& g = topology_.switch_graph();
  const double link_e = config_.tech.link_energy_pj_per_bit_mm;
  const double wire_ps_per_mm = config_.tech.link_delay_ps_per_mm;
  const double cycle_ps = config_.tech.clock_period_ps;
  double power_mw = 0.0;
  double weighted_latency_ps = 0.0;
  for (std::size_t k = 0; k < num_commodities; ++k) {
    const auto& commodity = commodities_[k];
    const int src_slot =
        core_to_slot[static_cast<std::size_t>(commodity.src_core)];
    const int dst_slot =
        core_to_slot[static_cast<std::size_t>(commodity.dst_core)];
    const graph::NodeId ingress = topology_.ingress_switch(src_slot);
    const graph::NodeId egress = topology_.egress_switch(dst_slot);
    double energy_pj = 0.0;   // fraction-weighted energy per bit
    double latency_ps = 0.0;  // fraction-weighted head latency
    for (const auto& wp : scratch.route_refs[k]->paths) {
      double path_pj = 0.0;
      double wire_mm = 0.0;
      for (graph::NodeId sw : wp.path.nodes) {
        path_pj += switch_table_.energy_pj_per_bit(sw);
      }
      for (graph::EdgeId e : wp.path.edges) {
        const auto& edge = g.edge(e);
        wire_mm += manhattan(
            scratch.switch_cx[static_cast<std::size_t>(edge.src)],
            scratch.switch_cy[static_cast<std::size_t>(edge.src)],
            scratch.switch_cx[static_cast<std::size_t>(edge.dst)],
            scratch.switch_cy[static_cast<std::size_t>(edge.dst)]);
      }
      wire_mm += manhattan(
          scratch.core_cx[static_cast<std::size_t>(src_slot)],
          scratch.core_cy[static_cast<std::size_t>(src_slot)],
          scratch.switch_cx[static_cast<std::size_t>(ingress)],
          scratch.switch_cy[static_cast<std::size_t>(ingress)]);
      wire_mm += manhattan(
          scratch.core_cx[static_cast<std::size_t>(dst_slot)],
          scratch.core_cy[static_cast<std::size_t>(dst_slot)],
          scratch.switch_cx[static_cast<std::size_t>(egress)],
          scratch.switch_cy[static_cast<std::size_t>(egress)]);
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
      total_value_ > 0.0 ? weighted_latency_ps / total_value_ / 1000.0 : 0.0;

  // ---- Degraded modes: every commodity re-routed under each scenario. ----
  // Disconnection is a recorded verdict, never an exception: the search
  // keeps moving.
  if (!fault_scenarios_.empty()) {
    evaluate_fault_scenarios(core_to_slot, scratch, eval);
  }

  apply_config_dependent(eval, floorplan_aspect);

  // Cache the metrics while `eval` still carries no floorplan or routes:
  // entries stay scalar-sized, and hits re-derive the flags/cost from the
  // stored aspect with the same arithmetic as above.
  {
    std::unique_lock<std::shared_mutex> lock(cache_mutex_);
    if (metrics_cache_.size() < kMetricsCacheCap) {
      metrics_cache_.emplace(core_to_slot,
                             CachedMetrics{eval, floorplan_aspect});
    }
  }

  // Lightweight (search-loop) evaluations carry metrics only: the searches
  // compare candidates by scalars, so copying the floorplan geometry into
  // every rejected candidate would be pure waste. Materialized evaluations
  // — the winners and every caller-facing result — get the full floorplan
  // and routes, exactly as before.
  if (materialize) {
    eval.floorplan = floorplan;
    eval.link_loads = scratch.loads.values();
    eval.routes.reserve(num_commodities);
    for (std::size_t k = 0; k < num_commodities; ++k) {
      eval.routes.push_back(*scratch.route_refs[k]);
    }
    // Per-scenario degraded link loads are a materialized-only extra (like
    // link_loads), computed after the cache insert above so cached metrics
    // stay identical between the hit and miss paths.
    if (!fault_scenarios_.empty()) {
      add_fault_link_loads(core_to_slot, scratch, eval);
    }
  }
  return eval;
}

void EvalContext::evaluate_fault_scenarios(
    const std::vector<int>& core_to_slot, EvalScratch& scratch,
    Evaluation& eval) const {
  const auto& g = topology_.switch_graph();
  const double link_e = config_.tech.link_energy_pj_per_bit_mm;
  const std::size_t num_commodities = commodities_.size();
  eval.fault_outcomes.assign(fault_scenarios_.size(),
                             Evaluation::FaultScenarioOutcome{});

  // What does not depend on the scenario is computed once: every edge's
  // wire, and each commodity's path-table cell and attach wires.
  const auto& paths = fault_paths_;
  scratch.fault_edge_wire.resize(static_cast<std::size_t>(g.num_edges()));
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    scratch.fault_edge_wire[static_cast<std::size_t>(e)] = manhattan(
        scratch.switch_cx[static_cast<std::size_t>(edge.src)],
        scratch.switch_cy[static_cast<std::size_t>(edge.src)],
        scratch.switch_cx[static_cast<std::size_t>(edge.dst)],
        scratch.switch_cy[static_cast<std::size_t>(edge.dst)]);
  }
  scratch.fault_commodities.resize(num_commodities);
  for (std::size_t k = 0; k < num_commodities; ++k) {
    const int src_slot =
        core_to_slot[static_cast<std::size_t>(commodities_[k].src_core)];
    const int dst_slot =
        core_to_slot[static_cast<std::size_t>(commodities_[k].dst_core)];
    const auto src = static_cast<std::size_t>(src_slot);
    const auto dst = static_cast<std::size_t>(dst_slot);
    const auto in = static_cast<std::size_t>(topology_.ingress_switch(src_slot));
    const auto out = static_cast<std::size_t>(topology_.egress_switch(dst_slot));
    auto& fc = scratch.fault_commodities[k];
    fc.cell = paths.cell(src_slot, dst_slot);
    fc.path = -1;
    fc.attach_in = manhattan(scratch.core_cx[src], scratch.core_cy[src],
                             scratch.switch_cx[in], scratch.switch_cy[in]);
    fc.attach_out = manhattan(scratch.core_cx[dst], scratch.core_cy[dst],
                              scratch.switch_cx[out], scratch.switch_cy[out]);
  }

  // A path's sums extend its parent's by one switch and one edge, in
  // Mapper::evaluate's walk order, so they are bit-identical to it. A path's first
  // use in this evaluation fills it and its unstamped ancestors.
  auto& sums = scratch.fault_path_sums;
  if (sums.size() < paths.parent.size()) sums.resize(paths.parent.size());
  const std::uint64_t stamp = ++scratch.fault_stamp;
  const auto fill_sums = [&](const auto& self, std::int32_t id) -> void {
    const auto p = static_cast<std::size_t>(id);
    const std::int32_t parent = paths.parent[p];
    double switch_pj = 0.0;
    double wire_mm = 0.0;
    if (parent >= 0) {
      const auto& up = sums[static_cast<std::size_t>(parent)];
      if (up.stamp != stamp) self(self, parent);
      switch_pj = up.switch_pj;
      wire_mm = up.wire_mm +
                scratch.fault_edge_wire[static_cast<std::size_t>(paths.edge[p])];
    }
    sums[p] = {stamp, switch_pj + switch_table_.energy_pj_per_bit(paths.node[p]),
               wire_mm};
  };

  // A commodity keeps its route under most scenarios, so its two terms are
  // recomputed only when its path id differs from the previous scenario's.
  for (std::size_t s = 0; s < fault_scenarios_.size(); ++s) {
    auto& outcome = eval.fault_outcomes[s];
    const std::int32_t* ids = paths.scenario_ids(s);
    double fault_hops = 0.0;
    double fault_power_mw = 0.0;
    for (std::size_t k = 0; k < num_commodities; ++k) {
      auto& fc = scratch.fault_commodities[k];
      const std::int32_t id = ids[fc.cell];
      if (id < 0) {
        outcome.connected = false;
        continue;
      }
      if (id != fc.path) {
        fc.path = id;
        const auto& path = sums[static_cast<std::size_t>(id)];
        if (path.stamp != stamp) fill_sums(fill_sums, id);
        const double value = commodities_[k].value_mbps;
        fc.hops_term =
            value * static_cast<double>(
                        paths.num_nodes[static_cast<std::size_t>(id)]);
        double wire_mm = path.wire_mm;
        wire_mm += fc.attach_in;
        wire_mm += fc.attach_out;
        fc.power_term = value * 8e-3 * (path.switch_pj + link_e * wire_mm);
      }
      fault_hops += fc.hops_term;
      fault_power_mw += fc.power_term;
    }
    outcome.avg_switch_hops =
        total_value_ > 0.0 ? fault_hops / total_value_ : 0.0;
    outcome.dynamic_power_mw = fault_power_mw;
  }
}

void EvalContext::add_fault_link_loads(const std::vector<int>& core_to_slot,
                                       EvalScratch& scratch,
                                       Evaluation& eval) const {
  const auto& g = topology_.switch_graph();
  const auto& paths = fault_paths_;
  for (std::size_t s = 0; s < fault_scenarios_.size(); ++s) {
    scratch.fault_loads.assign(static_cast<std::size_t>(g.num_edges()), 0.0);
    for (const auto& commodity : commodities_) {
      const int src_slot =
          core_to_slot[static_cast<std::size_t>(commodity.src_core)];
      const int dst_slot =
          core_to_slot[static_cast<std::size_t>(commodity.dst_core)];
      // A route is a simple path, so each of its edges gets the commodity's
      // value once whichever end the walk starts from.
      std::int32_t id = paths.scenario_ids(s)[paths.cell(src_slot, dst_slot)];
      for (; id >= 0 && paths.parent[static_cast<std::size_t>(id)] >= 0;
           id = paths.parent[static_cast<std::size_t>(id)]) {
        scratch.fault_loads[static_cast<std::size_t>(
            paths.edge[static_cast<std::size_t>(id)])] += commodity.value_mbps;
      }
    }
    eval.fault_outcomes[s].max_link_load_mbps =
        scratch.fault_loads.empty()
            ? 0.0
            : *std::max_element(scratch.fault_loads.begin(),
                                scratch.fault_loads.end());
  }
}

const fplan::Floorplan& EvalContext::floorplan_for_mapping(
    const std::vector<int>& core_to_slot, EvalScratch& scratch) const {
  const int num_slots = topology_.num_slots();
  scratch.floor_key.assign(static_cast<std::size_t>(num_slots), 0);
  for (int core = 0; core < app_.num_cores(); ++core) {
    scratch.floor_key[static_cast<std::size_t>(
        core_to_slot[static_cast<std::size_t>(core)])] =
        static_cast<std::uint16_t>(
            core_shape_class_[static_cast<std::size_t>(core)] + 1);
  }
  {
    // Cache-entry references outlive the lock: entries are never evicted,
    // and the only clear happens in bind(), which is documented to never
    // run concurrently with evaluations.
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    const auto it = floorplan_cache_.find(scratch.floor_key);
    if (it != floorplan_cache_.end()) {
      g_floorplan_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    g_floorplan_misses.fetch_add(1, std::memory_order_relaxed);
  }
  // Cache miss: solve through this thread's session, sending every slot
  // whose shape class differs from what the session holds — the previous
  // miss's mapping, accepted or rejected. In the swap loops that is a
  // candidate's two slots, plus two more after a rejected candidate. Shape
  // classes map to bit-identical shapes, so updating by class
  // representative equals updating by the cores' own shapes, and the solve
  // is bit-identical to a from-scratch Floorplanner::place.
  fplan::FloorplanSession& session = session_for(scratch);
  scratch.fplan_updates.clear();
  for (int slot = 0; slot < num_slots; ++slot) {
    const std::uint16_t want = scratch.floor_key[static_cast<std::size_t>(slot)];
    auto& have = scratch.fplan_session_key[static_cast<std::size_t>(slot)];
    if (have == want) continue;
    fplan::SlotShapeUpdate update;
    update.slot = slot;
    if (want > 0) update.shape = class_shapes_[static_cast<std::size_t>(want - 1)];
    scratch.fplan_updates.push_back(std::move(update));
    have = want;
  }
  session.update_shapes(scratch.fplan_updates);
  const fplan::Floorplan& floorplan = session.solve();
  {
    std::unique_lock<std::shared_mutex> lock(cache_mutex_);
    if (floorplan_cache_.size() < kFloorplanCacheCap) {
      floorplan_cache_.emplace(scratch.floor_key, floorplan);
    }
  }
  // The session's solution stays untouched until this scratch's next
  // floorplan query, so returning it directly skips a blocks copy per miss.
  return floorplan;
}

fplan::FloorplanSession& EvalContext::session_for(EvalScratch& scratch) const {
  const auto num_slots = static_cast<std::size_t>(topology_.num_slots());
  // The slot-count guard backs up the id/epoch checks: a scratch recycled
  // across contexts (a caller may hand one scratch to any context) whose
  // id and floorplan epoch both happen to line up must still never feed a
  // session resolved for a different topology — a mismatch between the key
  // length and this topology's slot count is the tell.
  if (scratch.fplan_session == nullptr ||
      scratch.fplan_session_context != context_id_ ||
      scratch.fplan_session_epoch != session_epoch_ ||
      scratch.fplan_session_key.size() != num_slots) {
    // Seed with every slot empty (shape class 0); the first solve's delta
    // then carries the whole mapping.
    const std::vector<std::optional<fplan::BlockShape>> empty(num_slots);
    scratch.fplan_session = std::make_unique<fplan::FloorplanSession>(
        config_.floorplan, placement_, empty, switch_shapes_);
    scratch.fplan_session_context = context_id_;
    scratch.fplan_session_epoch = session_epoch_;
    scratch.fplan_session_key.assign(num_slots, 0);
  }
  return *scratch.fplan_session;
}

route::RoutingSession& EvalContext::routing_session_for(
    EvalScratch& scratch) const {
  // Same id/epoch discipline as session_for: a scratch recycled across
  // contexts or across an evaluation-class rebind holds different routes,
  // and the session would return them for an unmoved mapping, so it is
  // rebound rather than trusted. The commodity-count and pass guards are
  // the structural backstop for id collisions.
  if (scratch.routing_session == nullptr ||
      scratch.routing_session_context != context_id_ ||
      scratch.routing_session_epoch != routing_epoch_ ||
      scratch.routing_session->num_commodities() !=
          static_cast<int>(commodities_.size()) ||
      scratch.routing_session->reroute_passes() != config_.reroute_passes) {
    if (scratch.routing_session == nullptr) {
      scratch.routing_session = std::make_unique<route::RoutingSession>();
    }
    std::vector<double> demands;
    demands.reserve(commodities_.size());
    for (const auto& commodity : commodities_) {
      demands.push_back(commodity.value_mbps);
    }
    scratch.routing_session->reset(std::move(demands), config_.reroute_passes);
    scratch.routing_session_context = context_id_;
    scratch.routing_session_epoch = routing_epoch_;
  }
  return *scratch.routing_session;
}

bool EvalContext::supports_pruning() const {
  // Collecting explored mappings requires the full area/power of every
  // candidate, so it disables pruning regardless of the objective; the
  // bound_pruning switch is how the admissibility tests obtain the
  // prune-free reference search.
  return config_.bound_pruning && !config_.collect_explored;
}

double EvalContext::hop_cost_lower_bound(
    const std::vector<int>& core_to_slot) const {
  double weighted = 0.0;
  for (const auto& commodity : commodities_) {
    const int src_slot =
        core_to_slot[static_cast<std::size_t>(commodity.src_core)];
    const int dst_slot =
        core_to_slot[static_cast<std::size_t>(commodity.dst_core)];
    weighted += commodity.value_mbps *
                static_cast<double>(
                    topology_.min_switch_hops(src_slot, dst_slot));
  }
  return total_value_ > 0.0 ? weighted / total_value_ : 0.0;
}

void EvalContext::build_bound_envelope() {
  BoundEnvelope env;
  env.grid = placement_.mode == topo::RelativePlacement::Mode::kGrid;
  env.spacing = config_.floorplan.spacing_mm;
  env.ncols = std::max(placement_.num_cols, 1);
  env.nrows = std::max(placement_.num_rows, 1);
  const int num_slots = topology_.num_slots();
  const int num_switches = topology_.num_switches();

  // Minimal dimensions a block can resolve to: hard blocks are fixed, soft
  // blocks are clamped to [min_aspect, max_aspect] by the sizing pass, so
  // w >= sqrt(area * min_aspect) and h >= sqrt(area / max_aspect) whatever
  // aspect the floorplanner actually picks.
  const auto min_dims = [](const fplan::BlockShape& shape) {
    if (!shape.soft) return std::pair<double, double>{shape.width_mm,
                                                      shape.height_mm};
    return std::pair<double, double>{
        std::sqrt(shape.area_mm2 * shape.min_aspect),
        std::sqrt(shape.area_mm2 / shape.max_aspect)};
  };

  env.class_min_w.reserve(class_shapes_.size());
  env.class_min_h.reserve(class_shapes_.size());
  for (const auto& shape : class_shapes_) {
    const auto [w, h] = min_dims(shape);
    env.class_min_w.push_back(w);
    env.class_min_h.push_back(h);
  }
  env.min_any_class_w =
      env.class_min_w.empty()
          ? 0.0
          : *std::min_element(env.class_min_w.begin(), env.class_min_w.end());
  env.min_any_class_h =
      env.class_min_h.empty()
          ? 0.0
          : *std::min_element(env.class_min_h.begin(), env.class_min_h.end());

  env.slot_col.assign(static_cast<std::size_t>(num_slots), -1);
  env.slot_row.assign(static_cast<std::size_t>(num_slots), -1);
  env.slot_sub.assign(static_cast<std::size_t>(num_slots), 0);
  env.col_slot_count.assign(static_cast<std::size_t>(env.ncols), 0);
  env.row_slot_count.assign(static_cast<std::size_t>(env.nrows), 0);
  env.switch_min_w.assign(static_cast<std::size_t>(num_switches), 0.0);
  env.switch_min_h.assign(static_cast<std::size_t>(num_switches), 0.0);
  env.switch_col.assign(static_cast<std::size_t>(num_switches), -1);
  env.switch_row.assign(static_cast<std::size_t>(num_switches), -1);
  env.switch_sub.assign(static_cast<std::size_t>(num_switches), 0);
  env.col_base_w.assign(static_cast<std::size_t>(env.ncols), 0.0);
  env.col_has_items.assign(static_cast<std::size_t>(env.ncols), 0);
  env.row_has_items.assign(static_cast<std::size_t>(env.nrows), 0);
  env.row_base_h.assign(static_cast<std::size_t>(env.nrows), 0.0);
  if (env.grid) {
    env.cell_base_h.assign(
        static_cast<std::size_t>(env.nrows) *
            static_cast<std::size_t>(env.ncols),
        0.0);
    env.cell_base_n.assign(env.cell_base_h.size(), 0);
  } else {
    env.col_base_h.assign(static_cast<std::size_t>(env.ncols), 0.0);
    env.col_base_n.assign(static_cast<std::size_t>(env.ncols), 0);
  }

  bool ok = true;
  for (const auto& item : placement_.items) {
    if (item.col < 0 || item.col >= env.ncols || item.row < 0 ||
        item.row >= env.nrows) {
      ok = false;
      break;
    }
    const auto col = static_cast<std::size_t>(item.col);
    if (item.kind == topo::RelativePlacement::Item::Kind::kCore) {
      if (item.index < 0 || item.index >= num_slots) {
        ok = false;
        break;
      }
      // Core items contribute per candidate (they depend on the mapping);
      // only their coordinates are recorded here.
      env.slot_col[static_cast<std::size_t>(item.index)] = item.col;
      env.slot_row[static_cast<std::size_t>(item.index)] = item.row;
      env.slot_sub[static_cast<std::size_t>(item.index)] = item.sub;
      ++env.col_slot_count[col];
      ++env.row_slot_count[static_cast<std::size_t>(item.row)];
    } else {
      if (item.index < 0 || item.index >= num_switches) {
        ok = false;
        break;
      }
      const auto sw = static_cast<std::size_t>(item.index);
      const auto [w, h] = min_dims(switch_shapes_[sw]);
      env.switch_min_w[sw] = w;
      env.switch_min_h[sw] = h;
      env.switch_col[sw] = item.col;
      env.switch_row[sw] = item.row;
      env.switch_sub[sw] = item.sub;
      env.col_base_w[col] = std::max(env.col_base_w[col], w);
      env.col_has_items[col] = 1;
      env.row_has_items[static_cast<std::size_t>(item.row)] = 1;
      if (env.grid) {
        const std::size_t cell =
            static_cast<std::size_t>(item.row) *
                static_cast<std::size_t>(env.ncols) +
            col;
        env.cell_base_h[cell] += h;
        ++env.cell_base_n[cell];
      } else {
        env.col_base_h[col] += h;
        ++env.col_base_n[col];
      }
    }
  }
  // Every slot and switch must be placed for the bounds to speak about any
  // candidate mapping; a placement that omits one disables the envelope
  // (bounds of 0 never prune).
  for (int s = 0; ok && s < num_slots; ++s) {
    if (env.slot_col[static_cast<std::size_t>(s)] < 0) ok = false;
  }
  for (int sw = 0; ok && sw < num_switches; ++sw) {
    if (env.switch_col[static_cast<std::size_t>(sw)] < 0) ok = false;
  }

  if (ok && env.grid) {
    // Switch-only band floor per row: the row is at least as tall as its
    // tallest core-less cell stack. Also index which core slot shares each
    // cell (the per-link wire bounds use it).
    for (int r = 0; r < env.nrows; ++r) {
      for (int c = 0; c < env.ncols; ++c) {
        const std::size_t cell = static_cast<std::size_t>(r) *
                                     static_cast<std::size_t>(env.ncols) +
                                 static_cast<std::size_t>(c);
        const int n = env.cell_base_n[cell];
        if (n > 0) {
          const double h = env.cell_base_h[cell] + env.spacing * (n - 1);
          auto& row = env.row_base_h[static_cast<std::size_t>(r)];
          row = std::max(row, h);
        }
      }
    }
    env.cell_slot.assign(static_cast<std::size_t>(env.nrows) *
                             static_cast<std::size_t>(env.ncols),
                         -1);
    for (int s = 0; s < num_slots; ++s) {
      const auto slot = static_cast<std::size_t>(s);
      env.cell_slot[static_cast<std::size_t>(env.slot_row[slot]) *
                        static_cast<std::size_t>(env.ncols) +
                    static_cast<std::size_t>(env.slot_col[slot])] = s;
    }
  }

  if (ok) {
    // Minimum core-attachment wire per slot: in the band layout two blocks
    // in different columns are centred in bands at least `spacing` apart,
    // so their centres are >= spacing + (w_a + w_b) / 2 apart along x;
    // blocks sharing a column are stacked, giving the same bound along y
    // with heights. Half the switch extent is precomputed here; the core's
    // half extent joins per candidate, since it depends on the mapping.
    env.attach_in_base.assign(static_cast<std::size_t>(num_slots), 0.0);
    env.attach_out_base.assign(static_cast<std::size_t>(num_slots), 0.0);
    env.attach_in_vertical.assign(static_cast<std::size_t>(num_slots), 0);
    env.attach_out_vertical.assign(static_cast<std::size_t>(num_slots), 0);
    env.slot_in_sw.assign(static_cast<std::size_t>(num_slots), 0);
    env.slot_out_sw.assign(static_cast<std::size_t>(num_slots), 0);
    for (int s = 0; s < num_slots; ++s) {
      const auto slot = static_cast<std::size_t>(s);
      const auto in_sw =
          static_cast<std::size_t>(topology_.ingress_switch(s));
      const auto out_sw =
          static_cast<std::size_t>(topology_.egress_switch(s));
      env.slot_in_sw[slot] = static_cast<int>(in_sw);
      env.slot_out_sw[slot] = static_cast<int>(out_sw);
      const bool in_vertical =
          env.slot_col[slot] == env.switch_col[in_sw];
      const bool out_vertical =
          env.slot_col[slot] == env.switch_col[out_sw];
      env.attach_in_vertical[slot] = in_vertical ? 1 : 0;
      env.attach_out_vertical[slot] = out_vertical ? 1 : 0;
      env.attach_in_base[slot] =
          env.spacing +
          (in_vertical ? env.switch_min_h[in_sw] : env.switch_min_w[in_sw]) /
              2.0;
      env.attach_out_base[slot] =
          env.spacing +
          (out_vertical ? env.switch_min_h[out_sw]
                        : env.switch_min_w[out_sw]) /
              2.0;
    }
  }

  env.valid = ok;
  envelope_ = std::move(env);
}

void EvalContext::build_power_bound_table() {
  // Cheapest possible energy per bit between every (ingress, egress) switch
  // pair: Dijkstra over per-switch energies from the resolved table plus a
  // per-link minimum wire energy from the placement envelope. Any actual
  // route of any routing function traverses some switch path, whose energy
  // is the sum of its node energies plus the wire energy of its (at least
  // minimally long) links — never below this table's entry.
  const auto& g = topology_.switch_graph();
  const int num_slots = topology_.num_slots();
  const double link_e = config_.tech.link_energy_pj_per_bit_mm;

  // Per-link minimum wire lengths. Blocks sit centred in their column band
  // and stacked inside their row band, so the centre distance between two
  // switches is at least the spacing-separated sum of everything provably
  // between them: other columns'/rows' width/height floors, and — the
  // pigeonhole floors — the minimal core extent wherever the application
  // has more cores than fit outside a region, which guarantees that region
  // hosts a core whatever the mapping.
  const BoundEnvelope& env = envelope_;
  const int num_cores = app_.num_cores();
  const auto guaranteed_core = [&](int slots_in_region) {
    return slots_in_region > 0 &&
           num_cores > topology_.num_slots() - slots_in_region;
  };
  std::vector<double> col_w_floor, row_h_floor;
  std::vector<char> col_used, row_used;
  if (env.valid) {
    col_w_floor.assign(static_cast<std::size_t>(env.ncols), 0.0);
    col_used.assign(static_cast<std::size_t>(env.ncols), 0);
    for (int c = 0; c < env.ncols; ++c) {
      const auto col = static_cast<std::size_t>(c);
      const bool core = guaranteed_core(env.col_slot_count[col]);
      col_used[col] = env.col_has_items[col] || core;
      col_w_floor[col] = env.col_base_w[col];
      if (core) {
        col_w_floor[col] = std::max(col_w_floor[col], env.min_any_class_w);
      }
    }
    row_h_floor.assign(static_cast<std::size_t>(env.nrows), 0.0);
    row_used.assign(static_cast<std::size_t>(env.nrows), 0);
    for (int r = 0; r < env.nrows; ++r) {
      const auto row = static_cast<std::size_t>(r);
      const bool core = guaranteed_core(env.row_slot_count[row]);
      row_used[row] = env.row_has_items[row] || core;
      row_h_floor[row] = env.row_base_h[row];
      if (core) {
        row_h_floor[row] = std::max(row_h_floor[row], env.min_any_class_h);
      }
    }
  }

  // The band engine (the default) centres every block inside its full
  // column band and packs row bands back to back, which is what the
  // column/row floor terms below lean on. The simplex-LP engine only
  // guarantees the pairwise ordering constraints themselves (a narrow
  // switch may sit at the edge of a column another block widened), so
  // under it the bounds fall back to what the LP constraints provably
  // give: half of each endpoint's own extent, one spacing, and the
  // intra-cell stack of the upper cell — still admissible, just looser.
  const bool band_geometry =
      config_.floorplan.engine == fplan::Floorplanner::Engine::kLongestPath;

  std::vector<double> edge_wire(static_cast<std::size_t>(g.num_edges()), 0.0);
  if (env.valid) {
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      const auto u = static_cast<std::size_t>(edge.src);
      const auto v = static_cast<std::size_t>(edge.dst);
      double wire = 0.0;
      if (env.switch_col[u] != env.switch_col[v]) {
        // Different column bands: the x distance spans half of each end
        // column (each at least as wide as its own switch and, under the
        // band engine, its column floor) plus — band engine only — every
        // provably occupied column between, with a spacing gap per band
        // crossing.
        wire = env.switch_min_w[u] / 2.0 + env.switch_min_w[v] / 2.0 +
               env.spacing;
        if (band_geometry) {
          const int lo = std::min(env.switch_col[u], env.switch_col[v]);
          const int hi = std::max(env.switch_col[u], env.switch_col[v]);
          wire = std::max(col_w_floor[static_cast<std::size_t>(
                              env.switch_col[u])],
                          env.switch_min_w[u]) /
                     2.0 +
                 std::max(col_w_floor[static_cast<std::size_t>(
                              env.switch_col[v])],
                          env.switch_min_w[v]) /
                     2.0;
          int gaps = 1;
          for (int c = lo + 1; c < hi; ++c) {
            if (!col_used[static_cast<std::size_t>(c)]) continue;
            wire += col_w_floor[static_cast<std::size_t>(c)];
            ++gaps;
          }
          wire += env.spacing * gaps;
        }
      } else if (env.grid && env.switch_row[u] != env.switch_row[v]) {
        // Same column, different row bands: half of each switch's height,
        // a spacing per crossing (band engine: plus every provably used
        // row band between) — and, when the upper switch's cell is
        // guaranteed to host a core stacked below it, that core's minimal
        // height too (an intra-cell constraint both engines enforce).
        const bool v_upper = env.switch_row[v] > env.switch_row[u];
        const auto upper = v_upper ? v : u;
        wire = (env.switch_min_h[u] + env.switch_min_h[v]) / 2.0;
        int gaps = 1;
        if (band_geometry) {
          const int lo = std::min(env.switch_row[u], env.switch_row[v]);
          const int hi = std::max(env.switch_row[u], env.switch_row[v]);
          for (int r = lo + 1; r < hi; ++r) {
            if (!row_used[static_cast<std::size_t>(r)]) continue;
            wire += row_h_floor[static_cast<std::size_t>(r)];
            ++gaps;
          }
        }
        const int cell_slot =
            env.cell_slot[static_cast<std::size_t>(env.switch_row[upper]) *
                              static_cast<std::size_t>(env.ncols) +
                          static_cast<std::size_t>(env.switch_col[upper])];
        if (cell_slot >= 0 && guaranteed_core(1) &&
            env.slot_sub[static_cast<std::size_t>(cell_slot)] <
                env.switch_sub[upper]) {
          wire += env.min_any_class_h + env.spacing;
        }
        wire += env.spacing * gaps;
      } else {
        // Same band (stacked in one cell or one column): at least a
        // spacing plus half of each height apart.
        wire = env.spacing + (env.switch_min_h[u] + env.switch_min_h[v]) / 2.0;
      }
      edge_wire[static_cast<std::size_t>(e)] = wire;
    }
  }

  // Exact-geometry upgrade: when the application has a single core shape
  // class and fills every slot, every injective mapping produces the same
  // per-slot shape assignment, hence the identical floorplan. The wire
  // bounds can then use the actual placed geometry — per-link centre
  // distances and exact core-attachment wires — instead of minimal
  // envelopes, which is what closes most of the bound gap on the
  // fully-occupied uniform meshes (netproc16).
  power_bound_exact_ = false;
  if (env.valid && class_shapes_.size() == 1 &&
      num_cores == num_slots) {
    const int num_switches = topology_.num_switches();
    std::vector<std::optional<fplan::BlockShape>> shapes(
        static_cast<std::size_t>(num_slots), class_shapes_[0]);
    const fplan::Floorplan plan =
        fplan::Floorplanner(config_.floorplan)
            .place(placement_, shapes, switch_shapes_);
    std::vector<double> sw_cx(static_cast<std::size_t>(num_switches), 0.0);
    std::vector<double> sw_cy(static_cast<std::size_t>(num_switches), 0.0);
    std::vector<double> core_cx(static_cast<std::size_t>(num_slots), 0.0);
    std::vector<double> core_cy(static_cast<std::size_t>(num_slots), 0.0);
    for (const auto& block : plan.blocks()) {
      if (block.kind == fplan::PlacedBlock::Kind::kCore) {
        core_cx[static_cast<std::size_t>(block.index)] = block.cx();
        core_cy[static_cast<std::size_t>(block.index)] = block.cy();
      } else {
        sw_cx[static_cast<std::size_t>(block.index)] = block.cx();
        sw_cy[static_cast<std::size_t>(block.index)] = block.cy();
      }
    }
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      edge_wire[static_cast<std::size_t>(e)] = manhattan(
          sw_cx[static_cast<std::size_t>(edge.src)],
          sw_cy[static_cast<std::size_t>(edge.src)],
          sw_cx[static_cast<std::size_t>(edge.dst)],
          sw_cy[static_cast<std::size_t>(edge.dst)]);
    }
    exact_attach_in_.assign(static_cast<std::size_t>(num_slots), 0.0);
    exact_attach_out_.assign(static_cast<std::size_t>(num_slots), 0.0);
    for (int s = 0; s < num_slots; ++s) {
      const auto slot = static_cast<std::size_t>(s);
      const auto in_sw =
          static_cast<std::size_t>(topology_.ingress_switch(s));
      const auto out_sw =
          static_cast<std::size_t>(topology_.egress_switch(s));
      exact_attach_in_[slot] = manhattan(core_cx[slot], core_cy[slot],
                                         sw_cx[in_sw], sw_cy[in_sw]);
      exact_attach_out_[slot] = manhattan(core_cx[slot], core_cy[slot],
                                          sw_cx[out_sw], sw_cy[out_sw]);
    }
    power_bound_exact_ = true;
  }

  // One single-source Dijkstra per distinct ingress switch reaches every
  // egress at once — O(S) passes instead of a point-to-point search per
  // slot pair. Run once with the wire term folded in (the main table) and,
  // outside exact mode, once over switch energies alone — the base the
  // per-candidate occupied-band wire refinement adds its geometric floor
  // to (the refined bound must not double-count the static edge wires).
  const auto run_sweep = [&](const auto& edge_cost,
                             std::vector<double>& table) {
    table.assign(static_cast<std::size_t>(num_slots) *
                     static_cast<std::size_t>(num_slots),
                 0.0);
    constexpr double kUnreached = std::numeric_limits<double>::infinity();
    std::map<graph::NodeId, std::vector<double>> by_ingress;
    std::vector<char> settled;
    for (int src = 0; src < num_slots; ++src) {
      const graph::NodeId u = topology_.ingress_switch(src);
      auto [it, inserted] =
          by_ingress.try_emplace(u, std::vector<double>());
      if (inserted) {
        auto& dist = it->second;
        dist.assign(static_cast<std::size_t>(g.num_nodes()), kUnreached);
        settled.assign(static_cast<std::size_t>(g.num_nodes()), 0);
        using Entry = std::pair<double, graph::NodeId>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
        dist[static_cast<std::size_t>(u)] = 0.0;
        queue.emplace(0.0, u);
        while (!queue.empty()) {
          const auto [d, node] = queue.top();
          queue.pop();
          if (settled[static_cast<std::size_t>(node)]) continue;
          settled[static_cast<std::size_t>(node)] = 1;
          for (const graph::EdgeId e : g.out_edges(node)) {
            const graph::NodeId next = g.edge(e).dst;
            const double candidate = d + edge_cost(e);
            if (candidate < dist[static_cast<std::size_t>(next)]) {
              dist[static_cast<std::size_t>(next)] = candidate;
              queue.emplace(candidate, next);
            }
          }
        }
      }
      const auto& dist = it->second;
      for (int dst = 0; dst < num_slots; ++dst) {
        const auto v =
            static_cast<std::size_t>(topology_.egress_switch(dst));
        // An unreachable pair cannot be routed at all; leave its bound at
        // zero so it can never prune a candidate evaluate() would reject
        // its own way.
        table[static_cast<std::size_t>(src) *
                  static_cast<std::size_t>(num_slots) +
              static_cast<std::size_t>(dst)] =
            dist[v] == kUnreached
                ? 0.0
                : switch_table_.energy_pj_per_bit(static_cast<int>(u)) +
                      dist[v];
      }
    }
  };
  run_sweep(
      [&](graph::EdgeId e) {
        return switch_table_.energy_pj_per_bit(g.edge(e).dst) +
               link_e * edge_wire[static_cast<std::size_t>(e)];
      },
      pair_energy_lb_);
  if (!power_bound_exact_) {
    run_sweep(
        [&](graph::EdgeId e) {
          return switch_table_.energy_pj_per_bit(g.edge(e).dst);
        },
        pair_switch_energy_lb_);
  } else {
    pair_switch_energy_lb_.clear();
  }
  power_bound_valid_ = true;
}

void EvalContext::fill_bound_floors(const std::vector<int>& core_to_slot,
                                    EvalScratch& scratch) const {
  const BoundEnvelope& env = envelope_;
  // Start from the mapping-invariant switch floors, then fold in each
  // mapped core's minimal dimensions at its slot's grid position — exactly
  // the band layout the floorplanner computes, with every resolved
  // dimension replaced by its minimum.
  scratch.bound_col_w = env.col_base_w;
  scratch.bound_col_used.assign(env.col_has_items.begin(),
                                env.col_has_items.end());
  if (env.grid) {
    scratch.bound_row_h = env.row_base_h;
    scratch.bound_row_used.assign(env.row_has_items.begin(),
                                  env.row_has_items.end());
  } else {
    scratch.bound_row_h = env.col_base_h;
    scratch.bound_row_used.assign(env.col_base_n.size(), 0);
  }

  for (int core = 0; core < app_.num_cores(); ++core) {
    const auto slot = static_cast<std::size_t>(
        core_to_slot[static_cast<std::size_t>(core)]);
    const auto cls =
        static_cast<std::size_t>(core_shape_class_[static_cast<std::size_t>(
            core)]);
    const auto col = static_cast<std::size_t>(env.slot_col[slot]);
    auto& col_w = scratch.bound_col_w[col];
    col_w = std::max(col_w, env.class_min_w[cls]);
    scratch.bound_col_used[col] = 1;
    if (env.grid) {
      const auto row = static_cast<std::size_t>(env.slot_row[slot]);
      const std::size_t cell =
          row * static_cast<std::size_t>(env.ncols) + col;
      const double stack = env.cell_base_h[cell] + env.class_min_h[cls] +
                           env.spacing * env.cell_base_n[cell];
      auto& row_h = scratch.bound_row_h[row];
      row_h = std::max(row_h, stack);
      scratch.bound_row_used[row] = 1;
    } else {
      scratch.bound_row_h[col] += env.class_min_h[cls];
      ++scratch.bound_row_used[col];
    }
  }
}

double EvalContext::area_lower_bound(const std::vector<int>& core_to_slot,
                                     EvalScratch& scratch) const {
  const BoundEnvelope& env = envelope_;
  if (!env.valid) return 0.0;

  fill_bound_floors(core_to_slot, scratch);

  double width = 0.0;
  int used_cols = 0;
  for (std::size_t c = 0; c < scratch.bound_col_w.size(); ++c) {
    if (!scratch.bound_col_used[c]) continue;
    width += scratch.bound_col_w[c];
    ++used_cols;
  }
  if (used_cols > 1) width += env.spacing * (used_cols - 1);

  double height = 0.0;
  if (env.grid) {
    int used_rows = 0;
    for (std::size_t r = 0; r < scratch.bound_row_h.size(); ++r) {
      if (!scratch.bound_row_used[r]) continue;
      height += scratch.bound_row_h[r];
      ++used_rows;
    }
    if (used_rows > 1) height += env.spacing * (used_rows - 1);
  } else {
    // Columns mode: chip height is the tallest column stack.
    for (std::size_t c = 0; c < scratch.bound_row_h.size(); ++c) {
      const int items = env.col_base_n[c] + scratch.bound_row_used[c];
      if (items <= 0) continue;
      height = std::max(height,
                        scratch.bound_row_h[c] + env.spacing * (items - 1));
    }
  }
  return width * height;
}

double EvalContext::power_lower_bound_impl(
    const std::vector<int>& core_to_slot, EvalScratch& scratch,
    bool floors_filled) const {
  if (!power_bound_valid_) return 0.0;
  const BoundEnvelope& env = envelope_;
  const auto num_slots = static_cast<std::size_t>(topology_.num_slots());
  const double link_e = config_.tech.link_energy_pj_per_bit_mm;

  // Exact-geometry mode (mapping-invariant floorplan): the pair table
  // already carries actual wire lengths, and the attachments are exact.
  if (power_bound_exact_) {
    double power_mw = 0.0;
    for (const auto& commodity : commodities_) {
      const auto src_slot = static_cast<std::size_t>(
          core_to_slot[static_cast<std::size_t>(commodity.src_core)]);
      const auto dst_slot = static_cast<std::size_t>(
          core_to_slot[static_cast<std::size_t>(commodity.dst_core)]);
      const double energy_pj =
          pair_energy_lb_[src_slot * num_slots + dst_slot] +
          link_e * (exact_attach_in_[src_slot] + exact_attach_out_[dst_slot]);
      power_mw += commodity.value_mbps * 8e-3 * energy_pj;
    }
    return switch_table_.total_static_power_mw() + power_mw;
  }

  // Per-candidate occupied-row/column wire refinement (band engine only —
  // it leans on blocks being centred in their column bands and row bands
  // packing back to back). The candidate's per-band floors are the area
  // bound's, folded into prefix sums so each commodity's between-band wire
  // floor is O(1): for ingress/egress switches in different bands, their
  // centre distance is at least half of each end band plus every occupied
  // band between, a spacing per crossing — along both axes. Added to the
  // switch-energy-only Dijkstra table it forms a second admissible bound;
  // each commodity takes the max of the two.
  const bool refine =
      env.valid && env.grid &&
      config_.floorplan.engine == fplan::Floorplanner::Engine::kLongestPath &&
      !pair_switch_energy_lb_.empty();
  if (refine) {
    if (!floors_filled) fill_bound_floors(core_to_slot, scratch);
    const auto ncols = static_cast<std::size_t>(env.ncols);
    const auto nrows = static_cast<std::size_t>(env.nrows);
    scratch.bound_col_px.assign(ncols, 0.0);
    scratch.bound_col_pn.assign(ncols, 0);
    double acc_w = 0.0;
    int cnt_w = 0;
    for (std::size_t c = 0; c < ncols; ++c) {
      if (scratch.bound_col_used[c]) {
        acc_w += scratch.bound_col_w[c];
        ++cnt_w;
      }
      scratch.bound_col_px[c] = acc_w;
      scratch.bound_col_pn[c] = cnt_w;
    }
    scratch.bound_row_px.assign(nrows, 0.0);
    scratch.bound_row_pn.assign(nrows, 0);
    double acc_h = 0.0;
    int cnt_h = 0;
    for (std::size_t r = 0; r < nrows; ++r) {
      if (scratch.bound_row_used[r]) {
        acc_h += scratch.bound_row_h[r];
        ++cnt_h;
      }
      scratch.bound_row_px[r] = acc_h;
      scratch.bound_row_pn[r] = cnt_h;
    }
  }

  double power_mw = 0.0;
  for (const auto& commodity : commodities_) {
    const auto src_slot = static_cast<std::size_t>(
        core_to_slot[static_cast<std::size_t>(commodity.src_core)]);
    const auto dst_slot = static_cast<std::size_t>(
        core_to_slot[static_cast<std::size_t>(commodity.dst_core)]);
    double energy_pj = pair_energy_lb_[src_slot * num_slots + dst_slot];
    double attach_pj = 0.0;
    if (env.valid) {
      const auto src_cls = static_cast<std::size_t>(
          core_shape_class_[static_cast<std::size_t>(commodity.src_core)]);
      const auto dst_cls = static_cast<std::size_t>(
          core_shape_class_[static_cast<std::size_t>(commodity.dst_core)]);
      const double in_core = env.attach_in_vertical[src_slot]
                                 ? env.class_min_h[src_cls]
                                 : env.class_min_w[src_cls];
      const double out_core = env.attach_out_vertical[dst_slot]
                                  ? env.class_min_h[dst_cls]
                                  : env.class_min_w[dst_cls];
      attach_pj = link_e * (env.attach_in_base[src_slot] + in_core / 2.0 +
                            env.attach_out_base[dst_slot] + out_core / 2.0);
    }
    if (refine) {
      const auto in_sw = static_cast<std::size_t>(env.slot_in_sw[src_slot]);
      const auto out_sw = static_cast<std::size_t>(env.slot_out_sw[dst_slot]);
      double wire = 0.0;
      const int cu = env.switch_col[in_sw];
      const int cv = env.switch_col[out_sw];
      if (cu != cv) {
        // Blocks sit centred in their column band, so the x distance spans
        // half of each end column (at least as wide as its own switch and
        // the candidate's column floor) plus every occupied column between.
        const int lo = std::min(cu, cv);
        const int hi = std::max(cu, cv);
        const double between =
            scratch.bound_col_px[static_cast<std::size_t>(hi - 1)] -
            scratch.bound_col_px[static_cast<std::size_t>(lo)];
        const int gaps =
            scratch.bound_col_pn[static_cast<std::size_t>(hi - 1)] -
            scratch.bound_col_pn[static_cast<std::size_t>(lo)] + 1;
        wire += std::max(scratch.bound_col_w[static_cast<std::size_t>(cu)],
                         env.switch_min_w[in_sw]) /
                    2.0 +
                std::max(scratch.bound_col_w[static_cast<std::size_t>(cv)],
                         env.switch_min_w[out_sw]) /
                    2.0 +
                between + env.spacing * gaps;
      }
      const int ru = env.switch_row[in_sw];
      const int rv = env.switch_row[out_sw];
      if (ru != rv) {
        // Row bands pack back to back; the endpoints contribute half their
        // own switch heights (a stacked block is not centred in its band).
        const int lo = std::min(ru, rv);
        const int hi = std::max(ru, rv);
        const double between =
            scratch.bound_row_px[static_cast<std::size_t>(hi - 1)] -
            scratch.bound_row_px[static_cast<std::size_t>(lo)];
        const int gaps =
            scratch.bound_row_pn[static_cast<std::size_t>(hi - 1)] -
            scratch.bound_row_pn[static_cast<std::size_t>(lo)] + 1;
        wire += (env.switch_min_h[in_sw] + env.switch_min_h[out_sw]) / 2.0 +
                between + env.spacing * gaps;
      }
      const double refined =
          pair_switch_energy_lb_[src_slot * num_slots + dst_slot] +
          link_e * wire;
      energy_pj = std::max(energy_pj, refined);
    }
    power_mw += commodity.value_mbps * 8e-3 * (energy_pj + attach_pj);
  }
  return switch_table_.total_static_power_mw() + power_mw;
}

bool EvalContext::prunable(const std::vector<int>& core_to_slot,
                           const Evaluation& incumbent,
                           EvalScratch& scratch) const {
  // Sound only against a feasible incumbent: better_than() ranks any
  // feasible candidate above an infeasible incumbent regardless of cost, and
  // the cost bounds say nothing about bandwidth feasibility.
  if (!supports_pruning() || !incumbent.feasible()) return false;
  // Strict-dominance margin for bounds whose arithmetic is not an exact
  // reproduction of evaluate()'s: they only prune candidates beating the
  // incumbent by more than a relative 1e-9, which dwarfs any floating-point
  // divergence between the bound and the exact value.
  const double strict = 1e-9 * std::max(1.0, std::abs(incumbent.cost));

  const bool wants_area_bound =
      config_.objective == Objective::kMinArea ||
      config_.objective == Objective::kWeighted ||
      std::isfinite(config_.max_area_mm2);
  double area_lb = 0.0;
  if (envelope_.valid && wants_area_bound) {
    area_lb = area_lower_bound(core_to_slot, scratch);
    if (area_lb > (config_.max_area_mm2 + 1e-9) * (1.0 + 1e-9)) {
      // Provably violates the area cap: an infeasible candidate can never
      // rank above a feasible incumbent, whatever the objective.
      return true;
    }
  }

  switch (config_.objective) {
    case Objective::kMinDelay: {
      const double bound = hop_cost_lower_bound(core_to_slot);
      // For the single-minimal-path routing functions (DO, MP) an evaluated
      // candidate whose routes are all minimal reproduces the bound's
      // arithmetic exactly, so `bound >= cost` can never prune a candidate
      // that would have ranked strictly better — ties included. The split
      // functions accumulate path fractions whose sum can differ from 1 by
      // an ulp, so they keep the safety margin and only prune strictly
      // dominated candidates.
      const bool exact_bound =
          config_.routing == route::RoutingKind::kDimensionOrdered ||
          config_.routing == route::RoutingKind::kMinPath;
      return bound >= incumbent.cost + (exact_bound ? 0.0 : strict);
    }
    case Objective::kMinArea: {
      if (envelope_.valid && area_lb >= incumbent.cost + strict) return true;
      // The envelope could not decide, but under min-area the cost IS the
      // floorplan area, which depends only on the per-slot shape classes:
      // the exact (cache-accelerated) floorplan settles it, skipping the
      // routing the full evaluation would pay. Ties prune — an equal-cost
      // candidate never replaces the incumbent.
      return floorplan_for_mapping(core_to_slot, scratch).area_mm2() >=
             incumbent.cost;
    }
    case Objective::kMinPower:
      // area_lower_bound (when the area cap engaged it above) already
      // derived this candidate's band floors into the scratch; the power
      // refinement reuses them.
      return power_bound_valid_ &&
             power_lower_bound_impl(core_to_slot, scratch,
                                    /*floors_filled=*/envelope_.valid &&
                                        wants_area_bound) >=
                 incumbent.cost + strict;
    case Objective::kWeighted: {
      if (!power_bound_valid_ || !envelope_.valid) return false;
      const double bound = config_.weights.cost(
          hop_cost_lower_bound(core_to_slot), area_lb,
          power_lower_bound_impl(core_to_slot, scratch,
                                 /*floors_filled=*/true));
      return bound >= incumbent.cost + strict;
    }
  }
  return false;
}

}  // namespace sunmap::mapping
