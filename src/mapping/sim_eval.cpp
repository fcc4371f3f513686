#include "mapping/sim_eval.h"

#include <stdexcept>
#include <vector>

namespace sunmap::mapping {

namespace {

/// The tier's traffic model over `flows`. Throws std::invalid_argument on
/// an invalid rate, scaling or burst shape.
std::unique_ptr<sim::TrafficModel> make_traffic(
    const SimTierOptions& options, const std::vector<sim::TrafficFlow>& flows) {
  if (options.traffic == SimTraffic::kBursty) {
    return std::make_unique<sim::BurstyTraffic>(
        flows, options.config.flits_per_packet,
        options.flits_per_cycle_per_gbps, options.burst_len,
        options.burst_duty);
  }
  return std::make_unique<sim::TraceTraffic>(
      flows, options.config.flits_per_packet,
      options.flits_per_cycle_per_gbps);
}

}  // namespace

SimTierOptions sim_tier_options(const MapperConfig& config) {
  SimTierOptions options;
  options.config.seed = config.sim_seed;
  options.traffic = config.sim_traffic;
  options.burst_len = config.sim_burst_len;
  options.burst_duty = config.sim_burst_duty;
  return options;
}

SimEvaluator::SimEvaluator(SimTierOptions options)
    : options_(std::move(options)) {}

SimScore SimEvaluator::score(const CoreGraph& app,
                             const topo::Topology& topology,
                             const MappingResult& result) {
  const auto commodities = commodities_by_value(app);
  if (result.eval.routes.size() != commodities.size()) {
    throw std::invalid_argument(
        "SimEvaluator: result carries no materialized routes");
  }
  if (result.core_to_slot.size() <
      static_cast<std::size_t>(app.num_cores())) {
    throw std::invalid_argument("SimEvaluator: incomplete mapping");
  }

  // Bind the mapping's own routes (borrowed, not copied) into the
  // simulator. Its traffic goes in commodity order, the deterministic
  // routing order, so flow order — and with it the draw order — is
  // reproducible. The flows name endpoint labels, not slots: flow k
  // injects from label 2k to label 2k+1, or to 2k when this mapping makes
  // it self-addressed, and slot_of maps the labels to this mapping's
  // slots. The labelled flows depend only on the app, so they key one
  // injection schedule that every mapping of the app replays.
  sim::RouteTable table(topology.num_slots());
  std::vector<sim::TrafficFlow> flows;
  flows.reserve(commodities.size());
  std::vector<int> slot_of(2 * commodities.size());
  double weighted_latency = 0.0;
  double weight_sum = 0.0;
  const double flits = static_cast<double>(options_.config.flits_per_packet);
  const double link_lat =
      static_cast<double>(options_.config.link_latency_cycles);
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const auto& c = commodities[k];
    const int src_slot =
        result.core_to_slot[static_cast<std::size_t>(c.src_core)];
    const int dst_slot =
        result.core_to_slot[static_cast<std::size_t>(c.dst_core)];
    const auto& routes = result.eval.routes[k];
    table.set_ref(src_slot, dst_slot, routes);
    const int src_label = static_cast<int>(2 * k);
    const int dst_label = src_slot == dst_slot ? src_label : src_label + 1;
    flows.push_back(sim::TrafficFlow{src_label, dst_label, c.value_mbps});
    slot_of[2 * k] = src_slot;
    slot_of[2 * k + 1] = dst_slot;
    // Zero-load packet latency for this commodity: F flits pipeline behind
    // the head over S switches and S-1 links.
    const double switches = routes.weighted_switch_hops();
    weighted_latency += c.value_mbps * (flits + (switches - 1.0) * link_lat);
    weight_sum += c.value_mbps;
  }

  auto [it, inserted] = cache_.try_emplace(&topology);
  Entry& entry = it->second;
  if (inserted) {
    entry.layout = sim::make_network_layout(topology);
    entry.simulator = std::make_unique<sim::Simulator>(
        topology, table, options_.config, entry.layout);
  } else {
    entry.simulator->bind(table);
  }

  if (trace_.schedule == nullptr || flows != trace_.flows) {
    auto traffic = make_traffic(options_, flows);
    trace_.schedule = std::make_unique<sim::InjectionSchedule>(
        *traffic, options_.config.seed);
    trace_.traffic = std::move(traffic);
    trace_.flows = std::move(flows);
  }

  SimScore score;
  score.stats = entry.simulator->run(*trace_.schedule, slot_of);
  score.analytical_latency_cycles =
      weight_sum > 0.0 ? weighted_latency / weight_sum : 0.0;
  score.simulated_latency_cycles = score.stats.avg_latency_cycles;
  return score;
}

}  // namespace sunmap::mapping
