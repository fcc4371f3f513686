#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/fault.h"
#include "fplan/floorplanner.h"
#include "mapping/core_graph.h"
#include "model/library.h"
#include "route/routing.h"
#include "topo/topology.h"

namespace sunmap::mapping {

/// Design objectives SUNMAP explores (§1: "minimizing average communication
/// delay, power consumption, area"). kWeighted combines all three with the
/// weights in MapperConfig::weights — an extension for trading objectives
/// off inside a single search rather than re-running per objective.
enum class Objective { kMinDelay, kMinArea, kMinPower, kWeighted };

const char* to_string(Objective objective);

/// Weights of the combined objective. Each term is normalised by a fixed
/// reference scale so the weights are dimensionless: cost =
/// delay*hops/kRefHops + area*mm2/kRefAreaMm2 + power*mW/kRefPowerMw.
struct ObjectiveWeights {
  static constexpr double kRefHops = 3.0;
  static constexpr double kRefAreaMm2 = 60.0;
  static constexpr double kRefPowerMw = 400.0;

  double delay = 1.0;
  double area = 1.0;
  double power = 1.0;

  /// The combined cost of one (hops, area, power) triple — the single
  /// formula the evaluations, the fault aggregation and the pruning bound
  /// share.
  [[nodiscard]] double cost(double hops, double area_mm2,
                            double power_mw) const {
    return delay * hops / kRefHops + area * area_mm2 / kRefAreaMm2 +
           power * power_mw / kRefPowerMw;
  }
  bool operator==(const ObjectiveWeights&) const = default;
};

/// Maximum allowed design aspect ratio (max(W/H, H/W)) of a feasible
/// floorplan.
inline constexpr double kMaxDesignAspect = 2.5;

/// Which mapping-search strategy Mapper runs after the greedy initial
/// placement: the paper's pairwise-swap pass (hill climbing), a
/// simulated-annealing walk, or the multi-restart annealer (N independent
/// seeded chains, best-of-restarts kept). Each kind is implemented by a
/// mapping::SearchStrategy (search_strategy.h); this enum is the
/// configuration-level selector the CLI and sweep axes expose.
enum class SearchKind { kGreedySwaps, kAnnealing, kRestartAnnealing };

const char* to_string(SearchKind kind);

/// Traffic model the simulator-backed finalist tier replays a mapped
/// design's commodities under: the plain application trace (Bernoulli at
/// each flow's rate) or the same flows modulated by BurstyTraffic's on/off
/// bursts (same long-run offered load concentrated into contention-heavy
/// phases).
enum class SimTraffic { kTrace, kBursty };

const char* to_string(SimTraffic traffic);

/// Configuration of one mapping run (phase 1 of the design flow).
struct MapperConfig {
  route::RoutingKind routing = route::RoutingKind::kMinPath;
  Objective objective = Objective::kMinDelay;

  /// Maximum traffic any NoC link may carry, MB/s ("Capacity of a link in a
  /// NoC is technology and implementation dependent and is assumed as an
  /// input"; the experiments use 500 MB/s).
  double link_bandwidth_mbps = 500.0;

  /// Area constraint: maximum floorplanned design area (mm^2).
  double max_area_mm2 = std::numeric_limits<double>::infinity();

  /// Weights used when objective == Objective::kWeighted.
  ObjectiveWeights weights;

  /// How the mapping space is searched after the greedy initial placement.
  SearchKind search = SearchKind::kGreedySwaps;

  /// Hill-climbing passes over all pairwise slot swaps (Fig 5 steps 9-10;
  /// one pass reproduces the paper, more passes strictly dominate).
  int swap_passes = 2;

  /// Simulated-annealing budget (search == kAnnealing or
  /// kRestartAnnealing): random pairwise swaps accepted with the Metropolis
  /// criterion under geometric cooling (search_strategy.cpp holds the
  /// schedule's constants). `annealing_iterations` is the TOTAL iteration
  /// budget of the search; the restart annealer divides it across its
  /// restarts so restart counts are comparable at equal cost.
  int annealing_iterations = 2000;

  /// Independent annealing chains of the restart annealer (search ==
  /// kRestartAnnealing). Chain r is seeded with 1 + r and all chains start
  /// from the greedy initial mapping; the best-of-restarts result (ties to
  /// the lowest restart index) is kept. Chains run one after another in
  /// seed order. At most max(1, annealing_iterations): a chain past the
  /// budget would run no iteration.
  int annealing_restarts = 4;

  /// Temperature re-heats per annealing chain: the chain is split into
  /// (annealing_reheats + 1) equal segments and the temperature is reset to
  /// the initial relative temperature x the current energy at each segment
  /// start, letting a cold chain escape the local minimum it converged
  /// into. 0 (the default) reproduces the plain geometric schedule.
  int annealing_reheats = 0;

  /// Master switch for bound-based candidate pruning (the two-phase swap
  /// evaluation). On by default; the pruning admissibility tests flip it
  /// off to obtain the prune-free reference search, which must be
  /// bit-identical.
  bool bound_pruning = true;

  /// Fault scenarios to evaluate every candidate mapping under, plus how
  /// their degraded costs aggregate into the search objective (fault/fault.h).
  /// The default (empty) keeps evaluation bit-identical to a fault-unaware
  /// run. The spec is topology-independent; each EvalContext materializes it
  /// against its own topology, so one configuration sweeps a whole library.
  fault::FaultSet faults;

  /// Sub-flows for split-across-all-paths routing.
  static constexpr int split_chunks = 16;

  /// Rip-up-and-reroute refinement rounds for the load-adaptive routing
  /// functions (MP and SA): after the initial decreasing-order pass each
  /// commodity is removed and re-routed against the traffic that stays,
  /// which approximates the balanced multi-commodity solution much better
  /// than a single sequential pass. 0 reproduces the paper's Fig 5 exactly.
  int reroute_passes = 2;

  /// Record the (area, power) of every evaluated mapping, enabling the
  /// Pareto exploration of Fig 9(b). Collecting disables bound-based swap
  /// pruning (a pruned candidate has no area/power to record).
  bool collect_explored = false;

  /// Settings of the simulator-backed finalist tier, which
  /// ExplorationRequest::sim_finalists and sim_rank switch on (Mapper::map
  /// reads none of them); the tier's engine and trace scaling are the
  /// mapping::SimTierOptions defaults.
  /// PRNG seed of the finalist-tier simulator, decoupled from the mapping
  /// search's seed so the two streams can be varied independently
  /// (--sim-seed). 1 — the default — reproduces the historical behavior
  /// (sim::SimConfig's default seed). Must be >= 1; 0 is reserved as "not
  /// a seed" so a forgotten flag value fails loudly instead of silently
  /// changing every score.
  std::uint64_t sim_seed = 1;
  /// Traffic model the finalist tier simulates (--sim-traffic); see
  /// SimTraffic. Burst shape for kBursty: mean burst length in cycles and
  /// the long-run fraction of the timeline covered by bursts (in-burst rate
  /// is scaled by 1/duty so offered load matches the plain trace).
  SimTraffic sim_traffic = SimTraffic::kTrace;
  double sim_burst_len = 50.0;
  double sim_burst_duty = 0.3;

  fplan::Floorplanner::Options floorplan;
  model::TechParams tech = model::TechParams::um100();

  /// Validates the configuration, throwing std::invalid_argument naming the
  /// offending field. The single source of truth for configuration sanity:
  /// Mapper's constructor, the DesignSpaceExplorer, and the CLI all call
  /// this instead of keeping their own ad-hoc checks.
  void validate() const;

  /// Memberwise equality (io::encode_request's read-back check).
  bool operator==(const MapperConfig&) const = default;
};

/// Everything phase 2 needs to compare a mapped topology against the rest —
/// the per-mapping outputs of Fig 5 steps 7-8.
struct Evaluation {
  bool bandwidth_feasible = false;
  bool area_feasible = false;
  [[nodiscard]] bool feasible() const {
    return bandwidth_feasible && area_feasible;
  }

  /// Maximum traffic across any link: the minimum link bandwidth the design
  /// requires (the metric of Fig 9(a)).
  double max_link_load_mbps = 0.0;
  /// Communication-weighted average number of switches traversed (the "avg
  /// hops" of Figs 3(d), 6(a), 7(b)).
  double avg_switch_hops = 0.0;
  /// Communication-weighted average end-to-end path latency in ns, combining
  /// one pipeline cycle per switch with floorplan-extracted wire delays —
  /// the floorplan-aware refinement of the hop metric.
  double avg_path_latency_ns = 0.0;
  /// Floorplanned chip area ("design area").
  double design_area_mm2 = 0.0;
  /// Network power: switches + links, from the bit-energy models ("design
  /// power"); the sum of the dynamic and static components below.
  double design_power_mw = 0.0;
  /// Traffic-dependent switch + link power.
  double dynamic_power_mw = 0.0;
  /// Always-on (leakage + clock) power of all instantiated switches.
  double static_power_mw = 0.0;
  /// Silicon area of the network switches alone.
  double switch_area_mm2 = 0.0;
  /// Objective-function value (lower is better); infeasible mappings rank
  /// by max link overload. With fault scenarios configured this is the
  /// aggregated (worst-case or mean) degraded cost; without, the plain
  /// fault-free objective value.
  double cost = std::numeric_limits<double>::infinity();

  /// Degraded-mode metrics of one fault scenario, aligned with the
  /// materialized scenario list of the configuration's FaultSet. Degraded
  /// routes are deterministic shortest paths over the surviving subgraph
  /// (regardless of the configured routing function), so the raw metrics
  /// are config-independent within an evaluation class and cache alongside
  /// the fault-free ones; `cost` is re-derived per configuration.
  struct FaultScenarioOutcome {
    /// False when the scenario disconnects a commodity or kills a switch a
    /// mapped core attaches to; the scenario then contributes
    /// infeasible_penalty x the fault-free cost instead of its own metrics.
    bool connected = true;
    double avg_switch_hops = 0.0;  ///< Over the commodities still routable.
    double dynamic_power_mw = 0.0;
    double cost = 0.0;  ///< Per-scenario objective value (config-derived).
    /// Max degraded link load; filled on materialized evaluations only.
    double max_link_load_mbps = 0.0;
  };
  /// One entry per fault scenario; empty when the config carries no faults.
  std::vector<FaultScenarioOutcome> fault_outcomes;
  /// Max over the per-scenario costs (0 when no scenarios) — the
  /// robustness column of exploration reports.
  double worst_fault_cost = 0.0;
  /// Scenarios that disconnected at least one commodity.
  int infeasible_fault_scenarios = 0;

  fplan::Floorplan floorplan;
  /// Routes per commodity, aligned with commodities_by_value(app).
  std::vector<route::RouteSet> routes;
  /// Final link loads, indexed by switch-graph EdgeId.
  std::vector<double> link_loads;
};

/// Ranks two evaluations under the mapper's search: feasible before
/// infeasible, then lower cost; among infeasible, lower max load.
bool better_than(const Evaluation& a, const Evaluation& b);

/// Derives the per-scenario costs and the aggregated objective value from an
/// evaluation's raw fault outcomes, overwriting eval.cost (which must hold
/// the fault-free objective value on entry). No-op without outcomes. Shared
/// by Mapper::evaluate and EvalContext so the degraded-cost arithmetic is
/// literally the same code on the reference and cached paths.
void apply_fault_objective(Evaluation& eval, const MapperConfig& config);

/// Result of mapping one application onto one topology.
struct MappingResult {
  /// map: V -> U of the paper; core_to_slot[i] is the slot of core i.
  std::vector<int> core_to_slot;
  /// Inverse mapping; -1 marks an unused slot.
  std::vector<int> slot_to_core;
  Evaluation eval;
  /// (area mm^2, power mW) of every evaluated mapping when
  /// MapperConfig::collect_explored is set.
  std::vector<std::pair<double, double>> explored_area_power;
  /// Candidate mappings the search considered (pruned + fully evaluated).
  int evaluated_mappings = 0;
  /// Of those, the candidates rejected by the hop-distance cost bound alone,
  /// without paying for routing and floorplanning.
  int pruned_mappings = 0;
};

class EvalContext;
struct EvalScratch;

/// The minimum-path mapping algorithm of Fig 5, generalised over topologies
/// and routing functions: greedy initial placement, commodities routed in
/// decreasing order over quadrant graphs, floorplan-based area/power
/// estimation, bandwidth/area feasibility, and pairwise-swap improvement.
class Mapper {
 public:
  explicit Mapper(MapperConfig config = {});

  /// Runs the full algorithm. Throws std::invalid_argument if the
  /// application has more cores than the topology has slots (the mapping
  /// function requires |V| <= |U|). Builds an EvalContext internally and
  /// reuses it across every candidate evaluation of the search.
  [[nodiscard]] MappingResult map(const CoreGraph& app,
                                  const topo::Topology& topology) const;

  /// The canonical entry point: maps over a caller-built context
  /// (make_context) and a caller-owned scratch that survives across map()
  /// calls. The scratch owns the thread's incremental floorplan and routing
  /// sessions, so a sweep that re-binds one context across many design
  /// points keeps the sessions (and their solved state) alive between
  /// searches — this is the overload DesignSpaceExplorer drives, and every
  /// other map() overload is sugar over it. The scratch must not be shared
  /// between concurrent map() calls.
  [[nodiscard]] MappingResult map(const EvalContext& ctx,
                                  EvalScratch& scratch) const;

  /// Builds the incremental evaluation engine for one (application,
  /// topology) pair under this mapper's configuration. The returned context
  /// borrows `app` and `topology`; both must outlive it.
  [[nodiscard]] EvalContext make_context(const CoreGraph& app,
                                         const topo::Topology& topology) const;

  /// Evaluates a fixed mapping (Fig 5 steps 2-8 only), from scratch with no
  /// caching. Exposed for tests, Pareto sweeps, and user-supplied
  /// placements; also the one reference implementation the cached
  /// EvalContext::evaluate() path is regression-tested against, and the
  /// independent oracle of each of its layers: it runs the adaptive
  /// routing loop inline on fresh routes and loads, floorplans with a
  /// one-shot Floorplanner::place, and re-runs a masked BFS per (fault
  /// scenario, commodity) where the context reads its degraded-path table.
  [[nodiscard]] Evaluation evaluate(const CoreGraph& app,
                                    const topo::Topology& topology,
                                    const std::vector<int>& core_to_slot) const;

  [[nodiscard]] const MapperConfig& config() const { return config_; }

  /// The area/power library resolved for config().tech — what make_context
  /// seeds contexts with, and what EvalContext::rebind() needs when
  /// re-binding a context to this mapper's configuration.
  [[nodiscard]] const model::AreaPowerLibrary& library() const {
    return library_;
  }

 private:
  [[nodiscard]] std::vector<int> greedy_initial_mapping(
      const CoreGraph& app, const topo::Topology& topology) const;

  MapperConfig config_;
  model::AreaPowerLibrary library_;
};

}  // namespace sunmap::mapping
