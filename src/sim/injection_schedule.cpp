#include "sim/injection_schedule.h"

namespace sunmap::sim {

InjectionSchedule::InjectionSchedule(TrafficModel& traffic,
                                     std::uint64_t seed)
    : traffic_(&traffic), prng_(seed) {}

void InjectionSchedule::extend_to(std::uint64_t end) {
  for (std::uint64_t cycle = drawn(); cycle < end; ++cycle) {
    poll_.clear();
    traffic_->injections(cycle, prng_, poll_);
    for (const auto& [src, dst] : poll_) {
      if (src == dst) continue;
      injections_.push_back(ScheduledInjection{src, dst, prng_.next_double()});
    }
    cycle_start_.push_back(injections_.size());
  }
}

}  // namespace sunmap::sim
