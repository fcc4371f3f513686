#pragma once

#include <string>

#include "select/explorer.h"

namespace sunmap::io {

/// The number format of both reports. Integers below 1e15 in magnitude
/// print as integers ("0" for -0.0); every other value prints as the
/// shortest printf("%.{p}g") that reads back as exactly `value`, or as
/// "%.17g" when no p below 17 does. So 0.0001 is "0.0001",
/// 1234567890120000 is "1.23456789012e+15", infinity is "inf" and NaN is
/// "nan". exploration_report_json writes non-finite values as null
/// instead.
std::string report_number(double value);

/// Flat CSV of a batched exploration, one row per (design point, topology)
/// cell. Columns are stable and documented here rather than inferred, so
/// the files are safe to consume programmatically:
///
/// point,shard,worker,routing,objective,search,restarts,swap_passes,
/// fplan_engine,fplan_sizing_passes,faults,link_bandwidth_mbps,
/// max_area_mm2,topology,feasible,best,avg_hops,avg_latency_ns,
/// design_area_mm2,design_power_mw,dynamic_power_mw,static_power_mw,
/// min_bandwidth_mbps,cost,fault_scenarios,worst_fault_cost,
/// fault_disconnected,sim_latency_cycles,sim_analytical_cycles,
/// sim_model_error,sim_status,sim_best
///
/// `best` marks the point's selected topology; an unconstrained area cap is
/// written as the empty field. `shard`/`worker` are the distributed-sweep
/// provenance of the point (which shard it belonged to, which worker
/// process evaluated it); a point evaluated in-process leaves both empty.
/// `faults` is the compact fault-set tag ("none" when the point injects no
/// faults); `fault_scenarios` counts the materialised scenarios for that
/// topology, `worst_fault_cost` is the worst degraded-scenario cost, and
/// `fault_disconnected` counts scenarios that disconnected at least one
/// commodity. The five sim_* columns carry the flit-level finalist tier's
/// verdict (simulated vs analytical delay in cycles, their relative error,
/// the run status, and `sim_best`: 1 on the cells the --sim-rank re-rank
/// crowned, 0 on every other scored cell); all five are empty for cells the
/// simulator did not score — the tier is opt-in via --sim-finalists.
/// Numbers are written by report_number().
std::string exploration_report_csv(const select::ExplorationReport& report);

/// Structured JSON of the same report: the design-point grid with per-
/// topology results, the per-objective winners, and the area/power Pareto
/// frontier. Non-finite numbers (an unconstrained area cap, the infinite
/// cost of an unevaluated mapping) are emitted as null per RFC 8259.
std::string exploration_report_json(const select::ExplorationReport& report);

}  // namespace sunmap::io
