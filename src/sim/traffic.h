#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/prng.h"

namespace sunmap::sim {

/// Source of packet injections for the simulator. An InjectionSchedule
/// polls the model once per cycle, in cycle order from 0, for the (source
/// slot, destination slot) packets to create. Constructors throw
/// std::invalid_argument naming any non-finite or out-of-range argument.
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  /// Appends this cycle's injections as (src_slot, dst_slot) pairs.
  virtual void injections(std::uint64_t cycle, util::Prng& prng,
                          std::vector<std::pair<int, int>>& out) = 0;
};

/// Classic synthetic patterns (Dally & Towles) used for the network-
/// processor study (§6.2): the paper's "adversarial traffic pattern for each
/// topology" is realised with permutations that concentrate load on the
/// weakest links of each topology.
enum class Pattern {
  kUniform,        ///< Uniform random destination.
  kTranspose,      ///< (r, c) -> (c, r) on the square slot grid.
  kBitComplement,  ///< dst = ~src (mod slots).
  kBitReverse,     ///< dst = bit-reversed src.
  kTornado,        ///< dst = src + ceil(n/2) - 1 (mod n).
  kShuffle,        ///< dst = rotate-left(src).
  kHotspot,        ///< A fraction of traffic targets one hot slot.
};

const char* to_string(Pattern pattern);

/// Open-loop Bernoulli injection of a synthetic pattern: every slot starts a
/// new packet with probability injection_rate / flits_per_packet per cycle,
/// so `injection_rate` is the offered load in flits/cycle/node as plotted in
/// Fig 8(b).
class PatternTraffic : public TrafficModel {
 public:
  PatternTraffic(int num_slots, Pattern pattern, double injection_rate,
                 int flits_per_packet);

  /// Hotspot configuration (only used by Pattern::kHotspot).
  void set_hotspot(int slot, double fraction);

  void injections(std::uint64_t cycle, util::Prng& prng,
                  std::vector<std::pair<int, int>>& out) override;

  /// The pattern's destination for a source slot (self-addressed results are
  /// redrawn for random patterns and skipped for permutations). Exposed for
  /// tests.
  [[nodiscard]] int destination(int src, util::Prng& prng) const;

 private:
  int num_slots_;
  Pattern pattern_;
  double packet_rate_;
  int hotspot_slot_ = 0;
  double hotspot_fraction_ = 0.5;
};

/// One application flow for trace-driven simulation.
struct TrafficFlow {
  int src_slot = 0;
  int dst_slot = 0;
  double rate_mbps = 0.0;

  friend bool operator==(const TrafficFlow&, const TrafficFlow&) = default;
};

/// On/off modulated Bernoulli injection: each source alternates between a
/// burst state (injecting at its burst rate) and an idle state (injecting
/// nothing), with geometrically distributed state durations. Mean burst
/// length `burst_len` and a long-run duty cycle of `duty` reproduce the
/// bursty phases of real SoC traffic that uniform Bernoulli smooths away;
/// the long idle spans are exactly the regime the event-driven engine
/// skips.
///
/// Two source shapes share the same on/off machinery:
/// - Synthetic: one on/off process per slot, destinations drawn from a
///   PatternTraffic (the original constructor).
/// - Trace: one on/off process per application flow, so a mapped design's
///   commodity rates can be replayed with bursts — while a flow bursts it
///   injects at rate/duty, keeping the long-run offered load equal to the
///   plain trace but concentrating it into contention-heavy phases. This is
///   the finalist-tier traffic model behind --sim-traffic bursty.
class BurstyTraffic : public TrafficModel {
 public:
  BurstyTraffic(int num_slots, Pattern pattern, double burst_rate,
                int flits_per_packet, double burst_len, double duty);

  /// Trace-driven bursts over application flows. Throws when a flow's
  /// in-burst rate (rate / duty) exceeds one packet per cycle, like
  /// TraceTraffic does for the plain rate.
  BurstyTraffic(std::vector<TrafficFlow> flows, int flits_per_packet,
                double flits_per_cycle_per_gbps, double burst_len,
                double duty);

  void injections(std::uint64_t cycle, util::Prng& prng,
                  std::vector<std::pair<int, int>>& out) override;

 private:
  void shape_burst(double burst_len, double duty);

  /// Destination pattern of the synthetic shape; empty in trace mode.
  std::optional<PatternTraffic> pattern_;
  double packet_rate_ = 0.0;  ///< Packets/cycle per slot while bursting.
  /// Trace mode: the flows and each flow's in-burst packet probability.
  std::vector<TrafficFlow> flows_;
  std::vector<double> flow_prob_;
  double p_exit_burst_ = 0.0;  ///< Per-cycle chance a burst ends.
  double p_enter_burst_ = 0.0; ///< Per-cycle chance an idle source bursts.
  std::vector<char> bursting_; ///< Per slot (synthetic) or per flow (trace).
};

/// Trace-driven injection reproducing a mapped application's core-graph
/// rates (the DSP SystemC study of §6.4): each flow independently starts a
/// packet with probability proportional to its bandwidth. `mbps_per_flit`
/// converts MB/s into expected flits/cycle (it folds together flit width and
/// clock frequency, and doubles as the knob for stressing the network).
class TraceTraffic : public TrafficModel {
 public:
  TraceTraffic(std::vector<TrafficFlow> flows, int flits_per_packet,
               double flits_per_cycle_per_gbps);

  void injections(std::uint64_t cycle, util::Prng& prng,
                  std::vector<std::pair<int, int>>& out) override;

  [[nodiscard]] const std::vector<TrafficFlow>& flows() const {
    return flows_;
  }
  /// Total offered load in flits/cycle summed over all flows.
  [[nodiscard]] double offered_flits_per_cycle() const;

 private:
  std::vector<TrafficFlow> flows_;
  std::vector<double> packet_prob_;
  int flits_per_packet_ = 1;
};

}  // namespace sunmap::sim
