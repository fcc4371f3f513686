#include "sim/traffic.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace sunmap::sim {

const char* to_string(Pattern pattern) {
  switch (pattern) {
    case Pattern::kUniform:
      return "uniform";
    case Pattern::kTranspose:
      return "transpose";
    case Pattern::kBitComplement:
      return "bit-complement";
    case Pattern::kBitReverse:
      return "bit-reverse";
    case Pattern::kTornado:
      return "tornado";
    case Pattern::kShuffle:
      return "shuffle";
    case Pattern::kHotspot:
      return "hotspot";
  }
  return "?";
}

namespace {

int bits_for(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

/// Returns `value` when it is finite and `ok`; otherwise throws
/// std::invalid_argument "<name> must be <rule>, got <value>". Returns the
/// value so member initializers can check their arguments.
double checked(double value, bool ok, const char* name, const char* rule) {
  if (!std::isfinite(value) || !ok) {
    char text[32];
    std::snprintf(text, sizeof text, "%g", value);
    throw std::invalid_argument(std::string(name) + " must be " + rule +
                                ", got " + text);
  }
  return value;
}

void check_flits_per_packet(int flits_per_packet, const char* who) {
  if (flits_per_packet < 1) {
    throw std::invalid_argument(std::string(who) +
                                ": flits_per_packet must be >= 1, got " +
                                std::to_string(flits_per_packet));
  }
}

}  // namespace

PatternTraffic::PatternTraffic(int num_slots, Pattern pattern,
                               double injection_rate, int flits_per_packet)
    : num_slots_(num_slots),
      pattern_(pattern),
      packet_rate_(injection_rate / static_cast<double>(flits_per_packet)) {
  if (num_slots < 2) {
    throw std::invalid_argument("PatternTraffic: need at least two slots");
  }
  checked(injection_rate, injection_rate >= 0.0,
          "PatternTraffic: injection_rate", "finite and >= 0");
  check_flits_per_packet(flits_per_packet, "PatternTraffic");
}

void PatternTraffic::set_hotspot(int slot, double fraction) {
  if (slot < 0 || slot >= num_slots_ ||
      !(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("PatternTraffic: invalid hotspot");
  }
  hotspot_slot_ = slot;
  hotspot_fraction_ = fraction;
}

int PatternTraffic::destination(int src, util::Prng& prng) const {
  const int n = num_slots_;
  switch (pattern_) {
    case Pattern::kUniform: {
      const int dst = static_cast<int>(
          prng.next_below(static_cast<std::uint64_t>(n - 1)));
      return dst >= src ? dst + 1 : dst;
    }
    case Pattern::kTranspose: {
      const int side = static_cast<int>(std::lround(std::sqrt(n)));
      if (side * side == n) {
        return (src % side) * side + src / side;
      }
      return (n - src) % n;  // degenerate grids fall back to reversal
    }
    case Pattern::kBitComplement: {
      const int bits = bits_for(n);
      return (~src) & ((1 << bits) - 1) & (n - 1);
    }
    case Pattern::kBitReverse: {
      const int bits = bits_for(n);
      int rev = 0;
      for (int b = 0; b < bits; ++b) {
        if ((src >> b) & 1) rev |= 1 << (bits - 1 - b);
      }
      return rev % n;
    }
    case Pattern::kTornado:
      return (src + (n + 1) / 2 - 1) % n;
    case Pattern::kShuffle: {
      const int bits = bits_for(n);
      return ((src << 1) | (src >> (bits - 1))) & ((1 << bits) - 1) & (n - 1);
    }
    case Pattern::kHotspot: {
      if (prng.chance(hotspot_fraction_) && src != hotspot_slot_) {
        return hotspot_slot_;
      }
      const int dst = static_cast<int>(
          prng.next_below(static_cast<std::uint64_t>(n - 1)));
      return dst >= src ? dst + 1 : dst;
    }
  }
  throw std::logic_error("PatternTraffic: unknown pattern");
}

void PatternTraffic::injections(std::uint64_t /*cycle*/, util::Prng& prng,
                                std::vector<std::pair<int, int>>& out) {
  for (int src = 0; src < num_slots_; ++src) {
    if (!prng.chance(packet_rate_)) continue;
    const int dst = destination(src, prng);
    if (dst == src || dst < 0 || dst >= num_slots_) continue;
    out.emplace_back(src, dst);
  }
}

void BurstyTraffic::shape_burst(double burst_len, double duty) {
  checked(burst_len, burst_len >= 1.0, "BurstyTraffic: burst_len",
          "finite and >= 1");
  checked(duty, duty > 0.0 && duty < 1.0, "BurstyTraffic: duty",
          "in (0, 1)");
  // Geometric state holding times: mean burst of `burst_len` cycles, and an
  // idle mean sized so bursts cover `duty` of the timeline in steady state.
  p_exit_burst_ = 1.0 / burst_len;
  const double idle_len = burst_len * (1.0 - duty) / duty;
  p_enter_burst_ = 1.0 / std::max(1.0, idle_len);
}

BurstyTraffic::BurstyTraffic(int num_slots, Pattern pattern,
                             double burst_rate, int flits_per_packet,
                             double burst_len, double duty)
    : pattern_(std::in_place, num_slots, pattern,
               checked(burst_rate, burst_rate >= 0.0,
                       "BurstyTraffic: burst_rate", "finite and >= 0"),
               flits_per_packet),
      packet_rate_(burst_rate / static_cast<double>(flits_per_packet)),
      bursting_(static_cast<std::size_t>(num_slots), 0) {
  shape_burst(burst_len, duty);
}

BurstyTraffic::BurstyTraffic(std::vector<TrafficFlow> flows,
                             int flits_per_packet,
                             double flits_per_cycle_per_gbps,
                             double burst_len, double duty)
    : flows_(std::move(flows)),
      bursting_(flows_.size(), 0) {
  check_flits_per_packet(flits_per_packet, "BurstyTraffic");
  checked(flits_per_cycle_per_gbps, flits_per_cycle_per_gbps > 0.0,
          "BurstyTraffic: flits_per_cycle_per_gbps", "finite and positive");
  shape_burst(burst_len, duty);
  // In-burst rate = trace rate / duty: the long-run offered load matches
  // the plain trace while bursts concentrate it.
  flow_prob_.reserve(flows_.size());
  for (const auto& flow : flows_) {
    checked(flow.rate_mbps, flow.rate_mbps > 0.0,
            "BurstyTraffic: flow rate_mbps", "finite and positive");
    const double flits_per_cycle =
        flow.rate_mbps / 1000.0 * flits_per_cycle_per_gbps;
    const double prob = flits_per_cycle / flits_per_packet / duty;
    if (prob > 1.0) {
      throw std::invalid_argument(
          "BurstyTraffic: in-burst flow rate exceeds one packet per cycle "
          "(lower the trace scaling or raise the duty cycle)");
    }
    flow_prob_.push_back(prob);
  }
}

void BurstyTraffic::injections(std::uint64_t /*cycle*/, util::Prng& prng,
                               std::vector<std::pair<int, int>>& out) {
  for (std::size_t s = 0; s < bursting_.size(); ++s) {
    // One transition draw per source per cycle, then the usual Bernoulli
    // injection while bursting — a fixed per-cycle draw order, so the
    // stream depends only on the seed and the model's parameters.
    if (bursting_[s] != 0) {
      if (prng.chance(p_exit_burst_)) bursting_[s] = 0;
    } else {
      if (prng.chance(p_enter_burst_)) bursting_[s] = 1;
    }
    if (bursting_[s] == 0) continue;
    if (!pattern_.has_value()) {
      // Trace mode: one on/off process per flow.
      if (prng.chance(flow_prob_[s])) {
        out.emplace_back(flows_[s].src_slot, flows_[s].dst_slot);
      }
      continue;
    }
    if (!prng.chance(packet_rate_)) continue;
    const int src = static_cast<int>(s);
    const int dst = pattern_->destination(src, prng);
    if (dst == src || dst < 0 ||
        dst >= static_cast<int>(bursting_.size())) {
      continue;
    }
    out.emplace_back(src, dst);
  }
}

TraceTraffic::TraceTraffic(std::vector<TrafficFlow> flows,
                           int flits_per_packet,
                           double flits_per_cycle_per_gbps)
    : flows_(std::move(flows)), flits_per_packet_(flits_per_packet) {
  check_flits_per_packet(flits_per_packet, "TraceTraffic");
  checked(flits_per_cycle_per_gbps, flits_per_cycle_per_gbps > 0.0,
          "TraceTraffic: flits_per_cycle_per_gbps", "finite and positive");
  packet_prob_.reserve(flows_.size());
  for (const auto& flow : flows_) {
    checked(flow.rate_mbps, flow.rate_mbps > 0.0,
            "TraceTraffic: flow rate_mbps", "finite and positive");
    const double flits_per_cycle =
        flow.rate_mbps / 1000.0 * flits_per_cycle_per_gbps;
    const double prob = flits_per_cycle / flits_per_packet;
    if (prob > 1.0) {
      throw std::invalid_argument(
          "TraceTraffic: flow rate exceeds one packet per cycle");
    }
    packet_prob_.push_back(prob);
  }
}

double TraceTraffic::offered_flits_per_cycle() const {
  double total = 0.0;
  for (double prob : packet_prob_) {
    total += prob * flits_per_packet_;
  }
  return total;
}

void TraceTraffic::injections(std::uint64_t /*cycle*/, util::Prng& prng,
                              std::vector<std::pair<int, int>>& out) {
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (prng.chance(packet_prob_[i])) {
      out.emplace_back(flows_[i].src_slot, flows_[i].dst_slot);
    }
  }
}

}  // namespace sunmap::sim
