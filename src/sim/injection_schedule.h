#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/traffic.h"
#include "util/prng.h"

namespace sunmap::sim {

/// One pre-drawn packet injection: the endpoints the traffic model emitted
/// and the uniform in [0, 1) that picks the packet's weighted path.
struct ScheduledInjection {
  int src = 0;
  int dst = 0;
  double path_draw = 0.0;
};

/// A simulation run's whole random stream, drawn ahead of the router model.
///
/// The simulator's PRNG has two readers: the traffic model, polled once per
/// cycle, and path sampling, one uniform per injected packet right after
/// its cycle's poll. Neither reads network state, so the stream depends
/// only on the seed and the traffic model, never on the routes or on how
/// the network behaves. The schedule records it once; every run that
/// replays the same traffic from the same seed then skips the draws. The
/// finalist tier scores all candidates of one application against one
/// schedule this way.
///
/// Cycles are drawn in order and on demand: extend_to(end) polls the
/// traffic model for the cycles not drawn yet below `end`, drawing each
/// injection's path uniform right after its cycle's poll, exactly as a
/// live run interleaves them. A self-addressed injection is dropped when
/// drawn and consumes no uniform. Entries never change once drawn, so how
/// the schedule was extended does not affect its contents.
class InjectionSchedule {
 public:
  /// Borrows `traffic`, which must outlive the schedule and must not be
  /// polled by anyone else: the schedule owns its stream from cycle 0.
  InjectionSchedule(TrafficModel& traffic, std::uint64_t seed);

  /// Draws every cycle below `end` that is not drawn yet.
  void extend_to(std::uint64_t end);

  /// Cycles [0, drawn()) are readable.
  [[nodiscard]] std::uint64_t drawn() const {
    return cycle_start_.size() - 1;
  }

  /// The injections of `cycle`, in the traffic model's order. Requires
  /// cycle < drawn(); the view is valid until the next extend_to().
  [[nodiscard]] std::span<const ScheduledInjection> at(
      std::uint64_t cycle) const {
    const std::size_t begin = cycle_start_[cycle];
    return {injections_.data() + begin, cycle_start_[cycle + 1] - begin};
  }

 private:
  TrafficModel* traffic_;
  util::Prng prng_;
  std::vector<std::pair<int, int>> poll_;  ///< One cycle's model output.
  std::vector<ScheduledInjection> injections_;
  /// Cycle c's injections are injections_[cycle_start_[c],
  /// cycle_start_[c + 1]).
  std::vector<std::size_t> cycle_start_{0};
};

}  // namespace sunmap::sim
