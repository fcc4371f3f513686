#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "fault/fault.h"
#include "fplan/floorplanner.h"
#include "fplan/session.h"
#include "mapping/mapper.h"
#include "model/library.h"
#include "route/routing.h"
#include "route/routing_session.h"
#include "topo/topology.h"

namespace sunmap::mapping {

/// Reusable per-thread buffers for EvalContext::evaluate(), so the mapping
/// search stops allocating in its inner loop. One scratch must not be shared
/// between concurrent evaluations; the explorer keeps one per topology, and
/// a topology is mapped by one thread at a time.
struct EvalScratch {
  std::vector<int> slot_to_core;
  route::LoadMap loads{0};
  /// Per-commodity route reference, aligned with commodities_by_value(app):
  /// into the context's static route table (DO / SM) or the routing
  /// session's routes (MP / split-all).
  std::vector<const route::RouteSet*> route_refs;
  /// Block centres extracted from the candidate floorplan, indexed by SlotId
  /// (cores) and switch NodeId, so the power loop's wire lengths are O(1)
  /// lookups instead of linear scans over the placed blocks.
  std::vector<double> core_cx, core_cy, switch_cx, switch_cy;
  /// Per-slot shape-class ids (0 = empty slot) — the floorplan cache key.
  std::vector<std::uint16_t> floor_key;
  /// Degraded-mode buffers. The fault evaluation computes each edge's wire
  /// once per evaluation (fault_edge_wire), and per commodity its
  /// path-table cell, its two attach wires and the hop and power terms of
  /// the path it took under the previous scenario (fault_commodities). Each
  /// degraded path it uses gets its switch-energy and edge-wire sums on
  /// first use, stamped with that evaluation's fault_stamp, so an entry from
  /// an earlier evaluation — of any context — is never read.
  std::vector<double> fault_edge_wire;
  struct FaultCommodity {
    std::size_t cell = 0;
    std::int32_t path = -1;
    double attach_in = 0.0, attach_out = 0.0;
    double hops_term = 0.0, power_term = 0.0;
  };
  std::vector<FaultCommodity> fault_commodities;
  struct FaultPathSums {
    std::uint64_t stamp = 0;
    double switch_pj = 0.0;
    double wire_mm = 0.0;
  };
  std::vector<FaultPathSums> fault_path_sums;
  std::uint64_t fault_stamp = 0;
  /// Column/row accumulators of the area lower bound (phase-1 pruning).
  /// bound_row_used doubles as a per-column item count in columns-mode
  /// placements, hence int rather than a flag.
  std::vector<double> bound_col_w, bound_row_h;
  std::vector<char> bound_col_used;
  std::vector<int> bound_row_used;
  /// Per-candidate occupied-column/row prefix folds of the min-power wire
  /// refinement: cumulative width/height floors and occupied counts, so
  /// each commodity's between-band wire floor is an O(1) lookup.
  std::vector<double> bound_col_px, bound_row_px;
  std::vector<int> bound_col_pn, bound_row_pn;

  /// This thread's floorplan session: floorplan-cache misses solve through
  /// it, sending only the slots whose shape class differs from
  /// fplan_session_key, the previous miss's mapping (accepted or rejected:
  /// the session keeps a rejected candidate until the next miss). Owned by
  /// the scratch so two threads never share solver state; the context
  /// lazily (re)builds it when the scratch meets a different context or the
  /// context's floorplan options / technology epoch moved. The session
  /// survives rebind()s that keep the floorplan configuration, which is how
  /// a design-space sweep reuses one session per topology across
  /// every grid point sharing its floorplan options.
  std::unique_ptr<fplan::FloorplanSession> fplan_session;
  std::uint64_t fplan_session_context = 0;  ///< EvalContext id it belongs to.
  std::uint64_t fplan_session_epoch = 0;    ///< Floorplan epoch it was built at.
  /// Per-slot shape classes the session currently holds (the delta base);
  /// always equal to the session's assignment.
  std::vector<std::uint16_t> fplan_session_key;
  std::vector<fplan::SlotShapeUpdate> fplan_updates;  ///< Reusable delta buffer.

  /// This thread's routing session (MP / split-all only; the static kinds
  /// keep reading the context's route tables): it runs the canonical
  /// routing loop and keeps the last result, which it returns when no
  /// endpoint moved. Owned by the scratch for the same reason as
  /// fplan_session: two threads must never share solver state. The context
  /// rebuilds it when the scratch meets a different context or a rebind()
  /// changed the evaluation class (anything that alters routes invalidates
  /// the stored result).
  std::unique_ptr<route::RoutingSession> routing_session;
  std::uint64_t routing_session_context = 0;  ///< EvalContext id it belongs to.
  std::uint64_t routing_session_epoch = 0;    ///< Routing epoch it was built at.
  /// Reusable per-commodity endpoint buffer handed to the session's solve.
  std::vector<route::CommodityEndpoints> commodity_endpoints;

  // ---- Transactional state (owned by mapping::DeltaTxn). ----
  /// Non-zero while a DeltaTxn speculation is open on this scratch. While
  /// open, adaptive-routing evaluations solve the routing session
  /// speculatively, so DeltaTxn::rollback() can pop the displaced routes
  /// and loads back.
  int txn_depth = 0;

  /// Always empty: no search starts threads of its own, so no scratch
  /// lends per-worker scratches. Kept only because
  /// perfbench/sunbench.cpp's SessionWatch::sample still iterates it;
  /// delete it with that loop.
  std::vector<std::unique_ptr<EvalScratch>> worker_pool;
};

/// The incremental mapping-evaluation engine: everything about one
/// (application, topology) pair that is invariant across candidate mappings,
/// precomputed once so that Mapper's search loops evaluate thousands of
/// candidates without redoing it.
///
/// The context's state is split in two layers:
///
///  *Mapping-invariant, configuration-independent* — owned by the (app,
///  topology) pair and never rebuilt: the commodity list sorted by
///  decreasing value (Fig 5 step 2), the topology's relative placement, the
///  quadrant-graph admission masks of §4.3 (built once on first use by a
///  minimum-path configuration, then read lock-free by every evaluation),
///  and the complete route tables per slot pair for the load-independent
///  routing functions (dimension-ordered, split-across-minimum-paths) —
///  one table per routing kind, built on first use and kept.
///
///  *Configuration-bound* — derived from one MapperConfig and replaced by
///  rebind(): the routing engine, the active objective/constraints, the
///  floorplanner, and the switch area/power rows resolved for the config's
///  technology point.
///
/// rebind() is what makes batched design-space exploration cheap: a
/// DesignSpaceExplorer builds one context per (app, topology) pair and
/// re-binds it across every configuration of a sweep, so the per-topology
/// precomputation above is paid once per topology instead of once per
/// design point.
///
/// Two bounded memoisation caches accelerate repeated evaluations and are
/// entirely transparent (hits return bit-identical results to a fresh
/// computation, because the cached functions are deterministic):
///
///  * a floorplan cache keyed by the per-slot shape assignment. Floorplans
///    depend only on which block shapes occupy which slots — not on the
///    routing function, objective, or bandwidth — so the cache survives
///    every rebind() that keeps the floorplan options and technology point,
///    and it also merges candidate mappings that permute identically-shaped
///    cores. Floorplanning dominates evaluation cost, which makes this the
///    main source of the explorer's cross-configuration speedup. Cache
///    *misses* solve through the scratch's FloorplanSession
///    (fplan/session.h), which keeps the placement structure and sends only
///    the slots whose shape class moved since the session's previous solve.
///  * an evaluation-metrics cache keyed by the mapping, valid for one
///    "evaluation class" (routing function plus the config fields that
///    influence routes). Objective, area cap, and bandwidth threshold only
///    affect the cost and feasibility flags, which are re-derived from the
///    cached metrics per configuration.
///
/// evaluate() is a drop-in replacement for Mapper::evaluate() and produces
/// bit-identical Evaluations (asserted by the equivalence regression tests);
/// it is thread-safe given per-thread scratch (the caches are internally
/// synchronised). rebind() must not run concurrently with evaluations.
///
/// The context borrows the application and topology; both must outlive it.
class EvalContext {
 public:
  EvalContext(const CoreGraph& app, const topo::Topology& topology,
              const MapperConfig& config,
              const model::AreaPowerLibrary& library);

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// Re-binds the context to a new mapper configuration without rebuilding
  /// the per-topology state: quadrant masks and static route tables are
  /// kept (and lazily extended when the new routing kind needs a table that
  /// was not built yet), the switch table is re-resolved only when the
  /// technology point changed, and the floorplan cache survives whenever
  /// the floorplan options and technology are unchanged. `library` must be
  /// resolved for `config.tech` (Mapper::library() provides this).
  ///
  /// After rebind(), evaluate()/map() behave exactly as if the context had
  /// been freshly constructed with `config`.
  void rebind(const MapperConfig& config,
              const model::AreaPowerLibrary& library);

  [[nodiscard]] const CoreGraph& app() const { return app_; }
  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] const MapperConfig& config() const { return config_; }

  /// Evaluates one mapping (Fig 5 steps 2-8) using the cached data. With
  /// `materialize` false the returned Evaluation is light: `routes` and
  /// `floorplan` stay empty, and the metrics cache may answer it — the
  /// search loops compare candidates by scalars, and skipping the route and
  /// geometry copies keeps rejected candidates cheap. A materialized
  /// evaluation always computes its routes and floorplan (it bypasses the
  /// metrics cache) and differs from the light one in those two fields
  /// only.
  ///
  /// Throws std::invalid_argument on a malformed mapping, mirroring
  /// Mapper::evaluate().
  [[nodiscard]] Evaluation evaluate(const std::vector<int>& core_to_slot,
                                    EvalScratch& scratch,
                                    bool materialize = true) const;

  /// True when candidate mappings may be bound-pruned at all: pruning is
  /// enabled in the config and the caller is not collecting every explored
  /// mapping's area/power (a pruned candidate has nothing to record). Which
  /// bound applies is per-objective — see prunable().
  [[nodiscard]] bool supports_pruning() const;

  /// Lower bound on the mapping's communication-weighted average switch
  /// hops: every commodity needs at least min_switch_hops between its
  /// mapped slots, whatever the routing function does. For minimal routing
  /// functions the bound is exact when every route is minimal, and it is
  /// computed with the same summation order as evaluate(), so comparing it
  /// against an evaluated cost is floating-point safe.
  [[nodiscard]] double hop_cost_lower_bound(
      const std::vector<int>& core_to_slot) const;

  /// Lower bound on the mapping's floorplanned design area, from the
  /// shape-class envelope of the relative placement: the chip width is at
  /// least the spacing-separated sum over non-empty columns of each
  /// column's widest minimal block width, the height likewise over row
  /// bands (grid mode) or column stacks (columns mode), and every block's
  /// minimal dimensions follow from its shape (exact for hard blocks,
  /// sqrt(area*min_aspect) x sqrt(area/max_aspect) for soft ones). Mirrors
  /// the band layout the floorplanner itself computes, with every resolved
  /// dimension replaced by its minimum, so it can never exceed the true
  /// area. Returns 0 when the topology's placement could not be enveloped.
  [[nodiscard]] double area_lower_bound(const std::vector<int>& core_to_slot,
                                        EvalScratch& scratch) const;

  /// Lower bound on the mapping's design power (mW): the exact
  /// mapping-invariant static power from the resolved switch table, plus,
  /// per commodity, the minimum achievable energy per bit — the cheapest
  /// switch-energy path between the mapped slots' ingress/egress switches
  /// (Dijkstra over the resolved per-switch energies plus per-link minimum
  /// wire lengths from the placement envelope) and the minimum
  /// core-attachment wire energy. Every actual route of any routing
  /// function costs at least this much. Returns 0 when the power-bound
  /// table is not bound (see prunable() for when it is built).
  ///
  /// Two refinements tighten the wire part beyond the static per-link
  /// floors (ROADMAP follow-on from PR 3):
  ///  * per-candidate occupied-row/column refinement — under the band
  ///    engine, each commodity's ingress->egress wire is additionally
  ///    bounded by the spacing-separated column/row floors of the bands the
  ///    candidate actually occupies (the same floors the area bound
  ///    derives), folded against a switch-energy-only Dijkstra table; the
  ///    commodity takes the max of the two admissible bounds.
  ///  * exact-geometry upgrade — when every slot provably hosts the one
  ///    core shape class the application has (num_cores == num_slots,
  ///    single class), the floorplan is the same for every candidate, so
  ///    the per-link wires and core attachments use the actual placed
  ///    geometry instead of minimal envelopes. This is what moves the
  ///    fully-occupied uniform meshes (netproc16) from a ~25% prune rate.
  [[nodiscard]] double power_lower_bound(const std::vector<int>& core_to_slot,
                                         EvalScratch& scratch) const {
    return power_lower_bound_impl(core_to_slot, scratch,
                                  /*floors_filled=*/false);
  }

  /// Phase 1 of the two-phase evaluation: true when an admissible bound
  /// proves the candidate cannot rank strictly better than the incumbent
  /// (or proves it violates the area cap), so the full routing +
  /// floorplanning evaluation can be skipped without changing the search
  /// result. Objective-generic: min-delay uses the hop bound, min-area the
  /// shape-class envelope refined by the exact (cache-accelerated)
  /// floorplan, min-power the switch-table energy bound, and the weighted
  /// objective their weighted combination. Bounds that are not exact
  /// reproductions of evaluate()'s arithmetic only prune strictly
  /// dominated candidates (a relative 1e-9 safety margin), so pruned
  /// searches return bit-identical results to prune-disabled ones.
  [[nodiscard]] bool prunable(const std::vector<int>& core_to_slot,
                              const Evaluation& incumbent,
                              EvalScratch& scratch) const;

  /// Total EvalContext constructions since process start. The batched
  /// exploration tests assert on deltas of this counter to prove the
  /// explorer builds exactly one context per (app, topology) pair.
  [[nodiscard]] static std::uint64_t contexts_built();

  /// Process-wide memoisation-cache counters (relaxed atomics), for the
  /// benches' cache-effectiveness reporting.
  struct CacheStats {
    std::uint64_t metrics_hits = 0;
    std::uint64_t metrics_misses = 0;
    std::uint64_t floorplan_hits = 0;
    std::uint64_t floorplan_misses = 0;
  };
  [[nodiscard]] static CacheStats cache_stats();

 private:
  void bind(const MapperConfig& config,
            const model::AreaPowerLibrary& library, bool first_bind);
  void build_static_routes(std::vector<route::RouteSet>& table) const;
  [[nodiscard]] const route::RouteSet& static_route(int src_slot,
                                                    int dst_slot) const {
    return (*static_routes_)[static_cast<std::size_t>(src_slot) *
                                 static_cast<std::size_t>(
                                     topology_.num_slots()) +
                             static_cast<std::size_t>(dst_slot)];
  }
  /// Sets the config-dependent fields of an evaluation (feasibility flags
  /// and objective cost) from its config-independent metrics and the
  /// floorplan's aspect ratio. Shared by the fresh-computation and
  /// cache-hit paths so their arithmetic is literally the same code.
  void apply_config_dependent(Evaluation& eval,
                              double floorplan_aspect) const;

  /// The mapping's floorplan, via the shape-class cache (computed and
  /// inserted on a miss). Exactly what evaluate() uses; also the min-area
  /// bound's exact phase. Fills scratch.floor_key as a side effect. Misses
  /// update the scratch's FloorplanSession by the slots whose shape class
  /// differs from scratch.fplan_session_key and solve it, so a miss skips
  /// the placement-structure build of a from-scratch floorplan.
  ///
  /// Returns a reference instead of a copy — the search loops only read
  /// scalars and block centres from it. The reference points at a cache
  /// entry (stable: entries are never evicted, only cleared by rebind(),
  /// which must not run concurrently with evaluations) or at the scratch's
  /// session solution; it stays valid until this scratch's next evaluation
  /// or floorplan query.
  [[nodiscard]] const fplan::Floorplan& floorplan_for_mapping(
      const std::vector<int>& core_to_slot, EvalScratch& scratch) const;

  /// The scratch's floorplan session, (re)built when the scratch belongs to
  /// another context or a rebind() moved the floorplan options/technology.
  [[nodiscard]] fplan::FloorplanSession& session_for(
      EvalScratch& scratch) const;

  /// The scratch's routing session, (re)built when the scratch belongs to
  /// another context or a rebind() changed the evaluation class. A rebuild
  /// binds the session to this context's commodity demands in canonical
  /// order and drops any speculative frame bookkeeping.
  [[nodiscard]] route::RoutingSession& routing_session_for(
      EvalScratch& scratch) const;

  /// Materializes the config's fault spec against this topology and builds
  /// the degraded-path table: one masked BFS per (scenario, ingress switch),
  /// whose visiting order grows a prefix trie (a switch's path is its BFS
  /// parent's path plus the parent edge, one child lookup each), so each
  /// distinct path is stored once and every (scenario, ingress, egress)
  /// gets a path id. Evaluations read routes by id instead of searching or
  /// walking BFS parents. Rebuilt only when the bound FaultSet changes.
  void build_fault_tables();
  /// Each scenario's degraded metrics (connected, avg_switch_hops,
  /// dynamic_power_mw) into eval.fault_outcomes, from the path table;
  /// bit-identical to Mapper::evaluate's masked BFS per (scenario,
  /// commodity). Reads the scratch's block centres, so it runs after
  /// evaluate() indexed the floorplan.
  void evaluate_fault_scenarios(const std::vector<int>& core_to_slot,
                                EvalScratch& scratch, Evaluation& eval) const;
  void build_bound_envelope();
  void build_power_bound_table();
  /// Fills scratch.bound_col_w / bound_row_h (+ used flags) with the
  /// candidate's per-band minimal floors — the shared first stage of
  /// area_lower_bound() and the min-power wire refinement.
  void fill_bound_floors(const std::vector<int>& core_to_slot,
                         EvalScratch& scratch) const;
  /// power_lower_bound with the floor fill optionally skipped:
  /// `floors_filled` true means the scratch already holds this candidate's
  /// band floors (prunable() just ran area_lower_bound on it), so the
  /// refinement reuses them instead of deriving them a second time.
  [[nodiscard]] double power_lower_bound_impl(
      const std::vector<int>& core_to_slot, EvalScratch& scratch,
      bool floors_filled) const;

  // ---- Mapping-invariant state (per app + topology, never rebuilt). ----
  const CoreGraph& app_;
  const topo::Topology& topology_;
  /// Process-unique id of this context (from the construction counter), so
  /// a scratch can tell a recycled context address from the context its
  /// floorplan session was built for.
  std::uint64_t context_id_ = 0;
  /// Bumped whenever a bind changes the floorplan options or technology
  /// point: scratch sessions from older epochs are stale and are rebuilt.
  std::uint64_t session_epoch_ = 0;
  /// Bumped whenever a bind changes the evaluation class (anything that
  /// alters routes): scratch routing sessions from older epochs hold routes
  /// of a different routing configuration and are rebuilt.
  std::uint64_t routing_epoch_ = 0;
  std::vector<Commodity> commodities_;
  double total_value_ = 0.0;
  topo::RelativePlacement placement_;
  /// Core index -> shape-equivalence class (cores with bit-identical
  /// BlockShapes share a class); basis of the floorplan cache key.
  std::vector<std::uint16_t> core_shape_class_;
  /// One representative BlockShape per shape class, for the bound envelope.
  std::vector<fplan::BlockShape> class_shapes_;
  std::optional<route::QuadrantTable> quadrant_table_;
  /// Per-routing-kind complete route tables for the load-independent
  /// functions, built on first use by a config of that kind and kept across
  /// rebinds (their routes depend only on the topology).
  std::optional<std::vector<route::RouteSet>> static_routes_do_;
  std::optional<std::vector<route::RouteSet>> static_routes_sm_;

  // ---- Configuration-bound state (replaced by rebind()). ----
  MapperConfig config_;  // by value: the context must not dangle on the mapper
  model::ResolvedSwitchTable switch_table_;
  std::vector<fplan::BlockShape> switch_shapes_;
  std::optional<route::RoutingEngine> engine_;
  const std::vector<route::RouteSet>* static_routes_ = nullptr;
  bool static_routing_ = false;

  /// Fault state, rebuilt by bind() when the configuration's FaultSet moved:
  /// the scenarios materialized against this topology and the degraded-path
  /// table. Both immutable between binds, so concurrent evaluations read
  /// them lock-free.
  std::vector<fault::FaultScenario> fault_scenarios_;
  /// Every distinct degraded route once, as a node of a prefix trie rooted
  /// at its ingress switch: path p is path parent[p] extended by edge[p]
  /// to switch node[p] (a root has parent -1, no edge, and its ingress as
  /// node), with num_nodes[p] switches. Ids are assigned in BFS order, so
  /// a parent's id is below its children's.
  struct DegradedPaths {
    std::vector<std::int32_t> parent;
    std::vector<graph::EdgeId> edge;
    std::vector<graph::NodeId> node;
    std::vector<std::int32_t> num_nodes;
    /// Dense numbering of the switches slots inject at (rows) and eject
    /// from (columns), per slot.
    std::vector<std::int32_t> slot_row, slot_col;
    std::int32_t rows = 0, cols = 0;
    /// Path id per (scenario, row, column), indexed
    /// [(scenario * rows + row) * cols + column]; -1 when the scenario
    /// leaves the egress unreachable (or kills the ingress).
    std::vector<std::int32_t> id;

    /// The cell of a commodity from src_slot to dst_slot within a
    /// scenario's ids.
    [[nodiscard]] std::size_t cell(int src_slot, int dst_slot) const {
      return static_cast<std::size_t>(
          slot_row[static_cast<std::size_t>(src_slot)] * cols +
          slot_col[static_cast<std::size_t>(dst_slot)]);
    }
    /// The path ids of one scenario, indexed by cell().
    [[nodiscard]] const std::int32_t* scenario_ids(std::size_t s) const {
      return &id[s * static_cast<std::size_t>(rows) *
                 static_cast<std::size_t>(cols)];
    }
  };
  DegradedPaths fault_paths_;

  /// Precomputed geometry of the area/power lower bounds, derived from the
  /// relative placement, the shape classes, and the resolved switch shapes
  /// (so it is rebuilt whenever the technology point or floorplan options
  /// change). All "min_w"/"min_h" entries are minimal block dimensions:
  /// exact for hard blocks, the extreme admissible aspects for soft ones.
  struct BoundEnvelope {
    bool valid = false;
    bool grid = true;
    double spacing = 0.0;
    int ncols = 0, nrows = 0;
    /// Minimal dimensions per core shape class (class_shapes_ order), and
    /// their minimum over all classes (what a slot that must host *some*
    /// core contributes before the mapping says which).
    std::vector<double> class_min_w, class_min_h;
    double min_any_class_w = 0.0, min_any_class_h = 0.0;
    /// Placement coordinates of each slot's core item.
    std::vector<int> slot_col, slot_row, slot_sub;
    /// Core-slot counts per column/row — the pigeonhole floors: a region
    /// holding k slots is guaranteed a core whenever the application has
    /// more cores than fit outside it.
    std::vector<int> col_slot_count, row_slot_count;
    /// Grid mode: the core slot sharing each cell (-1 when none).
    std::vector<int> cell_slot;
    /// Per-column width floor from switch items; whether switches occupy it.
    std::vector<double> col_base_w;
    std::vector<char> col_has_items;
    /// Grid mode: per-cell (row * ncols + col) switch-stack minimal height
    /// and item count, and the per-row switch-only band floor.
    std::vector<double> cell_base_h;
    std::vector<int> cell_base_n;
    std::vector<double> row_base_h;
    std::vector<char> row_has_items;
    /// Columns mode: per-column switch-stack totals.
    std::vector<double> col_base_h;
    std::vector<int> col_base_n;
    /// Minimal switch dimensions and placement coordinates, by NodeId.
    std::vector<double> switch_min_w, switch_min_h;
    std::vector<int> switch_col, switch_row, switch_sub;
    /// Per-slot minimum core-attachment wire parts: spacing plus half the
    /// ingress/egress switch's minimal extent along the separating axis;
    /// the core's own half-extent is added per candidate from its class.
    std::vector<double> attach_in_base, attach_out_base;
    std::vector<char> attach_in_vertical, attach_out_vertical;
    /// Per-slot ingress/egress switch NodeIds (the wire refinement reads
    /// the switches' band coordinates per commodity).
    std::vector<int> slot_in_sw, slot_out_sw;
  };
  BoundEnvelope envelope_;
  /// Minimum switch-energy + wire-energy (pJ/bit) between the ingress
  /// switch of slot src and the egress switch of slot dst, indexed
  /// [src * num_slots + dst]. Valid only while power_bound_valid_.
  std::vector<double> pair_energy_lb_;
  /// Switch-energy-only companion table (no wire term): the admissible
  /// base the per-candidate occupied-band wire refinement adds its
  /// geometric floor to.
  std::vector<double> pair_switch_energy_lb_;
  bool power_bound_valid_ = false;
  /// Exact-geometry mode: the floorplan is mapping-invariant (single core
  /// shape class filling every slot), so pair_energy_lb_ was built from
  /// actual placed wire lengths and the attachment terms below are exact.
  bool power_bound_exact_ = false;
  std::vector<double> exact_attach_in_, exact_attach_out_;

  // ---- Memoisation caches (guarded by cache_mutex_, bounded). ----
  // Reader-writer lock: evaluate() is thread-safe given per-thread scratch,
  // so a caller may evaluate one context from several threads (the explorer
  // does not: it maps each topology on one thread at a time). Hits take
  // only the shared side, so warm caches do not serialize such callers.
  static constexpr std::size_t kFloorplanCacheCap = 8192;
  static constexpr std::size_t kMetricsCacheCap = 8192;
  mutable std::shared_mutex cache_mutex_;
  /// Per-slot shape assignment -> floorplan. Survives rebind() while the
  /// floorplan options and technology point are unchanged.
  mutable std::map<std::vector<std::uint16_t>, fplan::Floorplan>
      floorplan_cache_;
  /// Mapping -> config-independent evaluation metrics. The stored
  /// Evaluation carries no routes or floorplan (the aspect ratio —
  /// all the flag re-derivation needs — is kept as a scalar, so entries
  /// stay a few hundred bytes and the locked copy on a hit is cheap).
  /// Valid for one evaluation class; cleared by rebind() when the new
  /// config routes differently.
  struct CachedMetrics {
    Evaluation metrics;
    double floorplan_aspect = 0.0;
  };
  mutable std::map<std::vector<int>, CachedMetrics> metrics_cache_;
};

}  // namespace sunmap::mapping
