#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "select/selector.h"
#include "topo/library.h"

namespace sunmap::select {

/// Externally-owned per-topology evaluation contexts and scratches, indexed
/// like the request's library. When a request carries one, explore() draws
/// its contexts from the pool instead of building fresh ones — contexts
/// found in the pool are rebind()-ed, missing entries are built and left in
/// the pool — so consecutive explore() calls over the same (app, library)
/// skip the per-topology construction entirely. This is what the sweep
/// daemon keeps alive across submitted requests and what a sweep worker
/// reuses across every point it explores.
///
/// A pool is bound to the first (app, library) it serves; handing it to a
/// request over a different app or library is an error (the contexts
/// borrow both). The pool must not be shared between concurrent explore()
/// calls.
struct ExplorerContextPool {
  std::vector<std::unique_ptr<mapping::EvalContext>> contexts;
  std::vector<mapping::EvalScratch> scratches;
  /// Identity of the (app, library) the pool's contexts were built for;
  /// set on first use, verified on every subsequent one.
  const mapping::CoreGraph* bound_app = nullptr;
  std::vector<const topo::Topology*> bound_topologies;
};

/// Upper bound of ExplorationRequest::num_threads. The request codec, the
/// explorer and the daemon's accept loop refuse a larger thread count, so a
/// request cannot start one thread per feasible finalist cell.
inline constexpr int kMaxThreads = 256;

/// A batched design-space exploration: one application, one topology
/// library, and a grid of mapper-configuration variations. Every non-empty
/// axis below replaces the corresponding field of `base`; empty axes fall
/// back to the single value already in `base`. The cross product of all
/// axes is the set of design points explored.
///
/// The request borrows `app` and `library`; both must outlive the explore()
/// call and the report it returns (the report points into the library).
struct ExplorationRequest {
  const mapping::CoreGraph* app = nullptr;
  const std::vector<std::unique_ptr<topo::Topology>>* library = nullptr;

  /// Defaults for every field the axes do not sweep (search strategy,
  /// swap passes, technology point, ...).
  mapping::MapperConfig base;

  std::vector<mapping::Objective> objectives;
  std::vector<route::RoutingKind> routings;
  std::vector<double> link_bandwidths_mbps;
  std::vector<double> max_areas_mm2;
  /// Search-schedule axes (ROADMAP follow-on): which strategy runs each
  /// point's mapping search, and — for the restart annealer — how many
  /// restarts split the annealing budget. Like every other axis, empty
  /// means "whatever `base` says". The grid stays a plain cross product:
  /// points whose search kind ignores annealing_restarts repeat per
  /// restart count (keeping num_points() and report coordinates regular);
  /// the per-topology metrics cache makes such repeats near-free.
  std::vector<mapping::SearchKind> searches;
  std::vector<int> restart_counts;
  /// Floorplanner-option variations (engine, sizing passes, spacing, ...)
  /// and the swap-pass schedule of the greedy search — the remaining
  /// ROADMAP sweep axes. Floorplan options vary SLOWEST in the grid: a
  /// floorplan-option move is the one axis step that invalidates the
  /// per-topology floorplan cache and incremental floorplan sessions on
  /// rebind, so the grid exhausts every other axis before paying it.
  std::vector<fplan::Floorplanner::Options> floorplan_options;
  std::vector<int> swap_passes;
  /// Fault-scenario variations (robustness axis): each entry is a full
  /// fault set — injection spec plus aggregation mode and penalty. The
  /// axis sits just inside floorplan options in the grid (second slowest):
  /// changing the fault spec changes the evaluation class, clearing the
  /// metrics cache and rebuilding the degraded-path table on rebind, so the
  /// grid exhausts every faster axis before paying that rebuild.
  std::vector<fault::FaultSet> fault_sets;

  /// Worker threads the explorer spreads topologies over, and the size of
  /// the finalist tier's pool; in [1, kMaxThreads]. These are the only
  /// threads that map: each worker owns one topology's evaluation context
  /// at a time and searches it sequentially, so any thread count returns
  /// bit-identical reports in identical order.
  int num_threads = 1;

  /// Optional externally-owned context/scratch pool (see
  /// ExplorerContextPool). nullptr — the default — keeps the contexts
  /// internal to the explore() call, exactly as before.
  ExplorerContextPool* context_pool = nullptr;

  /// Opt-in high-fidelity finalist tier: after the (analytically pruned and
  /// scored) grid completes, the flit-level simulator re-scores the top-K
  /// feasible (point, topology) cells of each objective group under the
  /// application's own traffic (plain trace or BurstyTraffic, per the base
  /// config's sim_traffic), attaching a mapping::SimScore to those
  /// candidates (TopologyCandidate::sim) — contention-aware delay reported
  /// alongside the analytical number. Mapping results and winner selection
  /// are untouched (the tier is purely additive; reports are bit-identical
  /// with it on or off). Engine, simulator seed, and trace scaling come
  /// from the base config's sim_* fields. 0 disables.
  ///
  /// Finalist cells are simulated by a deterministic worker pool of
  /// `num_threads` threads (one SimEvaluator per worker, results written
  /// to fixed cells), so reports are bit-identical to the serial tier at
  /// any thread count.
  int sim_finalists = 0;

  /// Two-phase simulated-delay ranking: the analytical search prefilters
  /// each objective group to its top-K finalists (sim_finalists), the
  /// simulator re-ranks those by contention-aware delay, and the per-group
  /// sim winners land in ExplorationReport::sim_winners. Deterministic and
  /// purely additive — analytical results, winners, and the Pareto
  /// frontier are bit-identical with this on or off. Requires
  /// sim_finalists >= 1 (throws otherwise).
  bool sim_rank = false;

  /// Number of design points the grid expands to.
  [[nodiscard]] std::size_t num_points() const;

  /// Points per run of the grid's innermost axis, objective: expand()
  /// emits each run consecutively, differing only in objective, so a run
  /// shares each context's evaluation class. sweep::run_sweep deals the
  /// grid in these runs.
  [[nodiscard]] std::size_t objective_run() const;
};

/// One fully-resolved configuration of the grid, with its coordinates along
/// each request axis (indices into the request's vectors, 0 for an axis
/// left empty).
struct DesignPoint {
  mapping::MapperConfig config;
  int fplan_index = 0;
  int fault_index = 0;
  int routing_index = 0;
  int bandwidth_index = 0;
  int area_index = 0;
  int search_index = 0;
  int restarts_index = 0;
  int swap_passes_index = 0;
  int objective_index = 0;

  /// Compact human-readable tag, e.g. "MP/delay/bw500" (non-default search
  /// strategies append themselves, e.g. ".../restart-annealing-x8"; swept
  /// swap-pass and floorplan coordinates append "/spN" and
  /// "/fp-<engine>-szN"; a non-empty fault set appends "/flt-<describe>").
  [[nodiscard]] std::string label() const;
};

/// One design point's outcome over the whole library: the same shape
/// TopologySelector::select() returns, so per-point results are drop-in
/// comparable with single-point runs.
struct PointResult {
  DesignPoint point;
  SelectionReport selection;
  /// Provenance of a distributed sweep (sweep/coordinator.h): which shard
  /// the point belonged to and which worker process produced it. -1 — the
  /// default — marks a point evaluated in-process by the explorer itself;
  /// io::exploration_report_csv/json render that as an empty/null cell.
  int shard_index = -1;
  int worker_id = -1;
};

/// Best feasible candidate of one point by strict cost comparison, in
/// candidate order — the exact rule TopologySelector::select() applies
/// (and SelectionReport::best_index holds). -1 when no candidate is
/// feasible.
[[nodiscard]] int best_feasible_index(
    const std::vector<TopologyCandidate>& candidates);

/// The best feasible (point, topology) cell for one swept objective;
/// point_index < 0 when no cell under that objective was feasible.
struct ObjectiveBest {
  mapping::Objective objective = mapping::Objective::kMinDelay;
  int point_index = -1;
  int topology_index = -1;

  [[nodiscard]] bool found() const { return point_index >= 0; }
};

/// Incremental per-objective winner accumulation, the rule finish_report()
/// applies: points must be fed in report (grid) order, so ties resolve to
/// the earliest grid coordinate.
class WinnerTracker {
 public:
  explicit WinnerTracker(const ExplorationRequest& request);

  /// Folds one point's candidates in, by its grid index. Feed strictly in
  /// increasing point_index order.
  void consider(const PointResult& result, int point_index);

  /// The accumulated winners, one entry per distinct objective.
  [[nodiscard]] std::vector<ObjectiveBest> take();

 private:
  std::vector<ObjectiveBest> winners_;
  std::vector<double> best_costs_;
};

/// Outcome of a batched exploration. `results` is ordered deterministically
/// by grid coordinates — floorplan options outermost, then fault sets,
/// routing, bandwidth, area cap, search strategy, restart count, swap
/// passes, and objective innermost — regardless of how many
/// worker threads ran the sweep. (Objective varies fastest so that consecutive points
/// share the evaluation-metrics cache of the per-topology context;
/// floorplan options vary slowest so the floorplan cache and sessions are
/// invalidated as rarely as the grid allows.)
struct ExplorationReport {
  std::vector<PointResult> results;
  /// One entry per distinct objective swept, in axis order.
  std::vector<ObjectiveBest> winners;
  /// Area/power Pareto frontier over every feasible (point, topology) cell
  /// of the sweep (Fig 9(b) generalised across the grid).
  std::vector<ParetoPoint> pareto;
  /// Simulated-delay winners (ExplorationRequest::sim_rank): per objective
  /// group, the finalist cell with the best simulated delay — drained runs
  /// first, then lower simulated latency, ties to lower analytical cost
  /// and the earlier grid coordinate. Parallel to `winners` (same group
  /// order); empty unless sim_rank was set.
  std::vector<ObjectiveBest> sim_winners;

  /// The winning candidate for `objective`, or nullptr when no feasible
  /// cell exists (or the objective was not swept).
  [[nodiscard]] const TopologyCandidate* winner(
      mapping::Objective objective) const;
};

/// Derives a report's per-point best indices, per-objective winners and
/// area/power Pareto frontier from its results, scanned in grid order.
/// explore() calls it after mapping every cell, and sweep::run_sweep() once
/// a merge completes, so both reports carry the same derived fields.
void finish_report(const ExplorationRequest& request,
                   ExplorationReport& report);

/// Phase 1 + 2 of the SUNMAP flow generalised to a configuration grid: maps
/// the application onto every topology under every design point, building
/// one evaluation context per topology and re-binding it across the grid so
/// the per-topology precomputation (quadrant masks, static route tables,
/// resolved switch rows, floorplan cache) is paid once per topology instead
/// of once per design point. Results are bit-identical to running
/// TopologySelector::select() once per configuration.
class DesignSpaceExplorer {
 public:
  /// Runs the sweep. Throws std::invalid_argument when the request lacks an
  /// app or library or any expanded configuration fails validation, and
  /// propagates mapping errors (e.g. an application with more cores than a
  /// topology has slots) exactly as the per-config loop would.
  [[nodiscard]] ExplorationReport explore(
      const ExplorationRequest& request) const;

  /// The expanded design-point grid, in report order, without running
  /// anything — what the CLI prints headers from and the tests enumerate.
  [[nodiscard]] static std::vector<DesignPoint> expand(
      const ExplorationRequest& request);
};

/// The finalist simulation pass on an already-evaluated report:
/// picks the top-K feasible cells of each objective group by mapping cost
/// (K = request.sim_finalists; the same grouping WinnerTracker uses) and
/// attaches a mapping::SimScore to each. Cells are distributed over a
/// deterministic worker pool of request.num_threads threads — one
/// SimEvaluator per worker, every score written to its fixed (point,
/// topology) cell, merged in ascending cell order — so the scored report is
/// bit-identical to a serial pass at any thread count. explore() calls this
/// when sim_finalists > 0; exposed so the bench probe (and tests) can time
/// and compare the tier in isolation on a prepared report.
void simulate_finalists(const ExplorationRequest& request,
                        ExplorationReport& report);

/// The simulated-delay re-rank over a finalist-scored report: for each
/// objective group, re-derives the group's finalist cells and ranks them by
/// (drained first, simulated latency, analytical cost, grid coordinate),
/// returning one ObjectiveBest per group in `winners` group order. Pure —
/// reads the report, mutates nothing. explore() stores the result in
/// ExplorationReport::sim_winners when request.sim_rank is set.
[[nodiscard]] std::vector<ObjectiveBest> rank_sim_winners(
    const ExplorationRequest& request, const ExplorationReport& report);

}  // namespace sunmap::select
