#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "mapping/core_graph.h"
#include "mapping/mapper.h"
#include "sim/simulator.h"

namespace sunmap::mapping {

/// Flit-level simulation verdict on one mapped design, reported alongside
/// the analytical evaluation it validates: the analytical model prices
/// delay as hops + wire latency with no contention, the simulator measures
/// it with wormhole blocking, credit stalls, and allocation conflicts
/// included.
struct SimScore {
  sim::SimStats stats;  ///< Full simulation statistics (trace traffic).
  /// Zero-load pipeline prediction in cycles, traffic-weighted over the
  /// mapping's commodities: F + (S-1)*L per commodity of S switches with
  /// F flits/packet and L-cycle links — what the analytical hop model
  /// implies when contention is free.
  double analytical_latency_cycles = 0.0;
  /// stats.avg_latency_cycles, duplicated for symmetric column naming.
  double simulated_latency_cycles = 0.0;
  /// Relative contention error the analytical model misses:
  /// (simulated - analytical) / simulated; 0 when nothing was delivered.
  [[nodiscard]] double model_error() const {
    return simulated_latency_cycles > 0.0
               ? (simulated_latency_cycles - analytical_latency_cycles) /
                     simulated_latency_cycles
               : 0.0;
  }
};

/// Configuration of the simulator-backed evaluation tier.
struct SimTierOptions {
  /// Engine + windows + buffering. Distance-class VCs default on: finalist
  /// routes include split-traffic and wraparound path sets that deadlock
  /// under a single VC, and a deadlocked score validates nothing.
  sim::SimConfig config;
  /// MB/s -> flits/cycle conversion for trace traffic (matches
  /// sim::TraceTraffic's scaling knob).
  double flits_per_cycle_per_gbps = 0.05;
  /// Traffic model the tier replays the mapped commodities under: the
  /// plain trace or BurstyTraffic's per-flow on/off modulation (see
  /// mapping::SimTraffic). The burst shape mirrors MapperConfig's
  /// sim_burst_* knobs.
  SimTraffic traffic = SimTraffic::kTrace;
  double burst_len = 50.0;
  double burst_duty = 0.3;

  SimTierOptions() { config.distance_class_vcs = true; }
};

/// Maps a MapperConfig's sim_* knobs (simulator seed, traffic model, burst
/// shape) onto the simulation tier's options, the rest keeping their
/// defaults (the event-driven engine, 0.05 flits/cycle per GB/s) — the one
/// translation the explorer and the CLI both need.
[[nodiscard]] SimTierOptions sim_tier_options(const MapperConfig& config);

/// Simulator-backed evaluation of mapped designs: binds a MappingResult's
/// per-commodity routes and rates into the flit-level simulator and scores
/// contention-aware delay. The entry point the explorer's finalist tier and
/// the CLI's --sim-validate both use.
///
/// Per-topology network layouts and simulator instances are cached across
/// calls, one per topology scored (repeated finalist scoring pays
/// route-table binding only, never network construction), so one evaluator
/// should be reused across a whole report. The cache is unbounded: an
/// evaluator lives for one report and sees at most its library.
///
/// The evaluator also keeps the sim::InjectionSchedule of the last
/// application trace it scored, keyed on the flow rates in commodity
/// order. Every mapping of one app injects the same random stream (the
/// draws depend on the seed, the rates and the burst shape, never on the
/// mapping or its routes), so the first score() of an app draws the
/// schedule and later ones replay it, drawing only cycles no earlier run
/// reached. Each call maps the flows onto its own mapping's slots.
///
/// Scoring is deterministic and assignment-independent: a replay is
/// bit-identical to a fresh simulator over fresh traffic seeded from the
/// configured seed, so the same (app, topology, result) triple produces
/// the identical SimScore no matter which evaluator instance computes it
/// or what was scored before. This is what lets the explorer's parallel
/// finalist tier hand cells to per-thread evaluators and still merge
/// bit-identical reports. A single instance is not thread-safe; use one
/// evaluator per thread.
class SimEvaluator {
 public:
  explicit SimEvaluator(SimTierOptions options = SimTierOptions());

  /// Simulates `result` (a mapping of `app` onto `topology`) under its own
  /// application trace. The result must carry materialized routes aligned
  /// with commodities_by_value(app) — every Mapper::map result does.
  [[nodiscard]] SimScore score(const CoreGraph& app,
                               const topo::Topology& topology,
                               const MappingResult& result);

  [[nodiscard]] const SimTierOptions& options() const { return options_; }

  /// Cached per-topology network layouts (exposed for tests).
  [[nodiscard]] std::size_t cached_layouts() const { return cache_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const sim::NetworkLayout> layout;
    std::unique_ptr<sim::Simulator> simulator;
  };

  /// The last trace scored. Its flows name endpoint labels, not slots (see
  /// score()), so they depend only on the app and key the schedule.
  struct Trace {
    std::vector<sim::TrafficFlow> flows;
    std::unique_ptr<sim::TrafficModel> traffic;
    std::unique_ptr<sim::InjectionSchedule> schedule;  ///< Polls traffic.
  };

  SimTierOptions options_;
  std::map<const topo::Topology*, Entry> cache_;
  Trace trace_;
};

}  // namespace sunmap::mapping
