#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/injection_schedule.h"
#include "sim/route_table.h"
#include "sim/traffic.h"
#include "topo/topology.h"

namespace sunmap::sim {

/// Which execution engine drives the simulation. Both engines implement the
/// identical router model and produce bit-identical SimStats for the same
/// config and traffic (asserted by tests/sim_event_test.cpp and gated by
/// bench_sim_throughput); the cycle-stepped loop is retained as the
/// reference the event-driven engine is checked against.
enum class SimEngine {
  /// Event-queue core: routers are scanned only on cycles where they hold
  /// flits or receive one; a quiescent cycle costs one read of the
  /// injection schedule and nothing else. The default.
  kEventDriven,
  /// Reference implementation: every router, FIFO, and output port is
  /// scanned on every cycle.
  kCycleStepped,
};

const char* to_string(SimEngine engine);

/// Simulator configuration. The router model is the cycle-accurate stand-in
/// for the generated ×pipes SystemC macros (see README "Stand-ins"): wormhole
/// switching, a single virtual channel, credit-based flow control over
/// point-to-point links, input FIFO buffers, round-robin output allocation
/// and source routing.
struct SimConfig {
  int flits_per_packet = 4;
  int buffer_depth_flits = 4;  ///< Input FIFO capacity per port (per VC).
  int link_latency_cycles = 1;

  /// Distance-class virtual channels: a flit at hop h travels in VC h, so
  /// VC indices strictly increase along any path and the channel dependency
  /// graph is acyclic — wormhole deadlock freedom for *any* source-routed
  /// path set (including split-traffic routes on meshes and wraparound
  /// torus routes, which deadlock under a single VC). The number of VCs is
  /// sized automatically to the longest route in the table. Costs buffer
  /// area in a real design, which is why it is an option and not the
  /// default.
  bool distance_class_vcs = false;

  std::uint64_t warmup_cycles = 2000;   ///< Not measured.
  std::uint64_t measure_cycles = 10000; ///< Packets generated here count.
  std::uint64_t drain_cycles = 30000;   ///< Extra budget to deliver them.

  /// Declare saturation when no flit moves for this many cycles (also the
  /// guard against single-VC wormhole deadlock on wraparound channels).
  std::uint64_t stall_limit_cycles = 2000;

  std::uint64_t seed = 1;

  SimEngine engine = SimEngine::kEventDriven;
};

/// Structured verdict on how a run terminated, from healthiest to most
/// pathological. Exactly one applies; SimStats::saturated stays the derived
/// "anything but kDrained" summary for callers that only need a boolean.
enum class RunStatus {
  kDrained,      ///< Every measured packet was delivered within the budget.
  kSaturatedThroughput,  ///< Drained, but accepted meaningfully less
                         ///< traffic than was offered (acceptance < 90%).
  kUndelivered,  ///< The drain budget expired with measured packets still
                 ///< in flight.
  kStalled,      ///< No flit moved for stall_limit_cycles — congestion
                 ///< collapse or single-VC wormhole deadlock.
};

const char* to_string(RunStatus status);

/// Aggregate results of one simulation run.
struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t packets_generated = 0;  ///< During the measurement window.
  std::uint64_t packets_delivered = 0;  ///< Measured packets delivered.
  double avg_latency_cycles = 0.0;      ///< Generation to tail ejection.
  double max_latency_cycles = 0.0;
  double p50_latency_cycles = 0.0;      ///< Median measured latency.
  double p95_latency_cycles = 0.0;
  double p99_latency_cycles = 0.0;
  /// Delivered flits per cycle per slot over the measurement+drain window.
  double throughput_flits_per_cycle_per_slot = 0.0;
  /// Injected flits per cycle per slot over the same window.
  double offered_flits_per_cycle_per_slot = 0.0;
  /// True when the network could not keep up with the offered load: the run
  /// hit the stall limit, failed to drain the measured packets, or accepted
  /// meaningfully less traffic than was offered. Latencies reported for a
  /// saturated run are lower bounds. Always equal to
  /// (status != RunStatus::kDrained).
  bool saturated = false;
  /// Which of the saturation conditions (if any) ended the run; kStalled
  /// wins over kUndelivered wins over kSaturatedThroughput when several
  /// hold at once.
  RunStatus status = RunStatus::kDrained;
  /// Cycles in which no flit moved while the network held flits, summed
  /// over the whole run (not just the final stall streak).
  std::uint64_t stalled_cycles = 0;
  /// Measured packets generated but never delivered.
  std::uint64_t undelivered_packets = 0;
  /// Flit traversals granted over the whole run (warmup + measurement +
  /// drain, link hops and ejections alike). Identical between engines; the
  /// numerator of the events/sec throughput metric in bench_sim_throughput.
  std::uint64_t flit_events = 0;
};

/// Static wiring of the simulated network for one topology: per-router port
/// shapes, edge -> port maps, injection and sink attachments. A pure
/// function of the topology — build it once with make_network_layout() and
/// share it across Simulator instances (finalist scoring, load sweeps) so
/// repeated runs don't pay network construction each time.
struct NetworkLayout {
  struct Output {
    bool is_sink = false;
    int dst_router = -1;   ///< Link destination router (non-sink).
    int dst_in_port = -1;  ///< Input port index at dst_router (non-sink).
    int sink_slot = -1;    ///< Ejection slot (sink only).
  };
  struct RouterShape {
    /// One flag per input port, in port order: true for the unbounded
    /// per-slot source queues appended after the network inputs.
    std::vector<char> input_is_source;
    std::vector<Output> outputs;
  };

  std::vector<RouterShape> routers;
  std::vector<int> out_port_of_edge;     ///< EdgeId -> output port at src.
  std::vector<int> in_port_of_edge;      ///< EdgeId -> input port at dst.
  std::vector<int> inject_port_of_slot;  ///< SlotId -> ingress input port.
  /// SlotId -> ejection (sink) output port at the slot's egress switch, so
  /// the per-flit ejection lookup is O(1) instead of a scan over the
  /// router's output ports.
  std::vector<int> sink_port_of_slot;
};

[[nodiscard]] std::shared_ptr<const NetworkLayout> make_network_layout(
    const topo::Topology& topology);

/// Cycle-accurate NoC simulator over one topology and routing table.
///
/// Packets are source-routed: at injection each packet samples one weighted
/// path from the route table. A flit granted an output port at cycle t
/// arrives at the downstream input at t + link_latency; with everything
/// idle, a packet of F flits over a path of S switches is delivered in
/// F + link_latency*(S-1) cycles from generation (asserted by the zero-load
/// latency tests).
///
/// Every random draw of a run comes from an InjectionSchedule: the run loop
/// reads each cycle's injections and their path uniforms from it and owns
/// no PRNG. run(TrafficModel&) draws a fresh single-use schedule seeded
/// from SimConfig::seed; run(InjectionSchedule&) replays a caller's
/// schedule, so runs that share traffic and seed draw it only once.
///
/// A Simulator is reusable: run() resets all dynamic state before
/// simulating, so repeated runs with the same traffic are identical, and
/// bind() rebinds a different route table over the same network. Pass a
/// cached NetworkLayout to skip port construction entirely.
class Simulator {
 public:
  Simulator(const topo::Topology& topology, const RouteTable& routes,
            SimConfig config,
            std::shared_ptr<const NetworkLayout> layout = nullptr);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Rebinds the route table (same topology). The table is borrowed: it
  /// must outlive the next run() call.
  void bind(const RouteTable& routes);

  /// Runs warmup + measurement + drain and returns the statistics. Resets
  /// all dynamic state first; callable repeatedly. Polls `traffic` through
  /// a single-use schedule seeded from SimConfig::seed.
  [[nodiscard]] SimStats run(TrafficModel& traffic);

  /// Runs over `schedule`'s injections (its own seed, not SimConfig::seed,
  /// drove the draws). The schedule is extended as the run needs it, in
  /// blocks and never past the run's last possible cycle, so one schedule
  /// can serve any number of runs and each pays only for the cycles no
  /// earlier run drew. `slot_of` relabels the schedule's endpoints:
  /// injection (a, b) enters at slot slot_of[a] bound for slot slot_of[b].
  /// Empty means the endpoints are slots already. An injection relabelled
  /// onto a single slot is skipped; an endpoint that maps to no slot
  /// throws std::out_of_range.
  [[nodiscard]] SimStats run(InjectionSchedule& schedule,
                             std::span<const int> slot_of = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: average measured packet latency for a synthetic pattern at
/// one injection rate (one point of Fig 8(b)). An optional cached layout
/// skips network construction.
SimStats simulate_pattern(const topo::Topology& topology,
                          const RouteTable& routes, Pattern pattern,
                          double injection_rate, const SimConfig& config,
                          std::shared_ptr<const NetworkLayout> layout =
                              nullptr);

}  // namespace sunmap::sim
