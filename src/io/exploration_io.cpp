#include "io/exploration_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "fault/fault.h"
#include "io/csv.h"
#include "sim/simulator.h"

namespace sunmap::io {

std::string report_number(double value) {
  char buffer[32];
  char* const last = buffer + sizeof(buffer);
  // The range check comes first: the cast is undefined for non-finite
  // values and for magnitudes at or above 2^63.
  if (std::abs(value) < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    return {buffer,
            std::to_chars(buffer, last, static_cast<long long>(value)).ptr};
  }
  // Ryū's shortest scientific form has the fewest significant digits any
  // decimal reading back as `value` can have, so no precision below its
  // digit count reads back and the %.{p}g search starts there. The search
  // itself stays: %.{p}g rounds to the nearest p-digit decimal, and at a
  // power of two, where the gap below the value is half the gap above,
  // that decimal can fall below the value's rounding interval while Ryū's
  // digits sit above it. Non-finite values have no digits; from precision
  // 1 on, an infinity reads back at once and NaN never does.
  char* end =
      std::to_chars(buffer, last, value, std::chars_format::scientific).ptr;
  int shortest = 0;
  for (const char* c = buffer; c != end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++shortest;
  }
  for (int precision = std::max(shortest, 1); precision < 17; ++precision) {
    end = std::to_chars(buffer, last, value, std::chars_format::general,
                        precision)
              .ptr;
    double parsed = 0.0;
    std::from_chars(buffer, end, parsed);
    if (parsed == value) return {buffer, end};
  }
  return {buffer,
          std::to_chars(buffer, last, value, std::chars_format::general, 17)
              .ptr};
}

namespace {

/// JSON number, or null for non-finite values (RFC 8259 has no infinity).
std::string json_number(double value) {
  return std::isfinite(value) ? report_number(value) : "null";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                        static_cast<unsigned>(c));
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string exploration_report_csv(const select::ExplorationReport& report) {
  std::ostringstream out;
  out << "point,shard,worker,routing,objective,search,restarts,swap_passes,"
         "fplan_engine,"
         "fplan_sizing_passes,faults,link_bandwidth_mbps,"
         "max_area_mm2,topology,"
         "feasible,best,avg_hops,avg_latency_ns,design_area_mm2,"
         "design_power_mw,dynamic_power_mw,static_power_mw,"
         "min_bandwidth_mbps,cost,"
         "fault_scenarios,worst_fault_cost,fault_disconnected,"
         "sim_latency_cycles,sim_analytical_cycles,sim_model_error,"
         "sim_status,sim_best\n";
  // Cells the sim re-rank crowned (--sim-rank): the sim_best column marks
  // them with 1 and every other simulator-scored cell with 0.
  std::set<std::pair<int, int>> sim_best;
  for (const auto& best : report.sim_winners) {
    if (best.found()) sim_best.emplace(best.point_index, best.topology_index);
  }
  for (std::size_t p = 0; p < report.results.size(); ++p) {
    const auto& result = report.results[p];
    const auto& config = result.point.config;
    for (std::size_t t = 0; t < result.selection.candidates.size(); ++t) {
      const auto& candidate = result.selection.candidates[t];
      const auto& eval = candidate.result.eval;
      out << p << ",";
      if (result.shard_index >= 0) out << result.shard_index;
      out << ",";
      if (result.worker_id >= 0) out << result.worker_id;
      out << "," << route::to_string(config.routing) << ","
          << mapping::to_string(config.objective) << ","
          << mapping::to_string(config.search) << ","
          << (config.search == mapping::SearchKind::kRestartAnnealing
                  ? std::to_string(config.annealing_restarts)
                  : std::string())
          << "," << config.swap_passes << ","
          << fplan::to_string(config.floorplan.engine) << ","
          << config.floorplan.sizing_passes << ","
          << fault::describe(config.faults) << ","
          << report_number(config.link_bandwidth_mbps) << ",";
      if (std::isfinite(config.max_area_mm2)) {
        out << report_number(config.max_area_mm2);
      }
      out << "," << csv_field(candidate.topology->name()) << ","
          << (eval.feasible() ? 1 : 0) << ","
          << (static_cast<int>(t) == result.selection.best_index ? 1 : 0)
          << "," << report_number(eval.avg_switch_hops) << ","
          << report_number(eval.avg_path_latency_ns) << ","
          << report_number(eval.design_area_mm2) << ","
          << report_number(eval.design_power_mw) << ","
          << report_number(eval.dynamic_power_mw) << ","
          << report_number(eval.static_power_mw) << ","
          << report_number(eval.max_link_load_mbps) << "," << report_number(eval.cost)
          << "," << eval.fault_outcomes.size() << ","
          << report_number(eval.worst_fault_cost) << ","
          << eval.infeasible_fault_scenarios << ",";
      // Finalist-tier simulation columns: empty unless the simulator scored
      // this cell (--sim-finalists / ExplorationRequest::sim_finalists).
      if (candidate.sim.has_value()) {
        out << report_number(candidate.sim->simulated_latency_cycles) << ","
            << report_number(candidate.sim->analytical_latency_cycles) << ","
            << report_number(candidate.sim->model_error()) << ","
            << sim::to_string(candidate.sim->stats.status) << ","
            << (sim_best.count({static_cast<int>(p), static_cast<int>(t)})
                    ? 1
                    : 0);
      } else {
        out << ",,,,";
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string exploration_report_json(const select::ExplorationReport& report) {
  std::ostringstream out;
  out << "{\n  \"points\": [\n";
  for (std::size_t p = 0; p < report.results.size(); ++p) {
    const auto& result = report.results[p];
    const auto& config = result.point.config;
    out << "    {\"label\": " << json_string(result.point.label())
        << ", \"shard\": "
        << (result.shard_index >= 0 ? std::to_string(result.shard_index)
                                    : std::string("null"))
        << ", \"worker\": "
        << (result.worker_id >= 0 ? std::to_string(result.worker_id)
                                  : std::string("null"))
        << ", \"routing\": " << json_string(route::to_string(config.routing))
        << ", \"objective\": "
        << json_string(mapping::to_string(config.objective))
        << ", \"search\": " << json_string(mapping::to_string(config.search))
        << ", \"restarts\": "
        << (config.search == mapping::SearchKind::kRestartAnnealing
                ? std::to_string(config.annealing_restarts)
                : std::string("null"))
        << ", \"swap_passes\": " << config.swap_passes
        << ", \"fplan_engine\": "
        << json_string(fplan::to_string(config.floorplan.engine))
        << ", \"fplan_sizing_passes\": " << config.floorplan.sizing_passes
        << ", \"faults\": " << json_string(fault::describe(config.faults))
        << ", \"link_bandwidth_mbps\": "
        << json_number(config.link_bandwidth_mbps)
        << ", \"max_area_mm2\": " << json_number(config.max_area_mm2)
        << ",\n     \"best\": ";
    const auto* best = result.selection.best();
    out << (best != nullptr ? json_string(best->topology->name()) : "null");
    out << ", \"candidates\": [\n";
    for (std::size_t t = 0; t < result.selection.candidates.size(); ++t) {
      const auto& candidate = result.selection.candidates[t];
      const auto& eval = candidate.result.eval;
      out << "      {\"topology\": " << json_string(candidate.topology->name())
          << ", \"feasible\": " << (eval.feasible() ? "true" : "false")
          << ", \"avg_hops\": " << json_number(eval.avg_switch_hops)
          << ", \"avg_latency_ns\": " << json_number(eval.avg_path_latency_ns)
          << ", \"design_area_mm2\": " << json_number(eval.design_area_mm2)
          << ", \"design_power_mw\": " << json_number(eval.design_power_mw)
          << ", \"min_bandwidth_mbps\": "
          << json_number(eval.max_link_load_mbps)
          << ", \"cost\": " << json_number(eval.cost)
          << ", \"fault_scenarios\": " << eval.fault_outcomes.size()
          << ", \"worst_fault_cost\": " << json_number(eval.worst_fault_cost)
          << ", \"fault_disconnected\": " << eval.infeasible_fault_scenarios
          << ", \"sim\": ";
      if (candidate.sim.has_value()) {
        const auto& sim = *candidate.sim;
        out << "{\"latency_cycles\": "
            << json_number(sim.simulated_latency_cycles)
            << ", \"analytical_cycles\": "
            << json_number(sim.analytical_latency_cycles)
            << ", \"model_error\": " << json_number(sim.model_error())
            << ", \"status\": "
            << json_string(sim::to_string(sim.stats.status))
            << ", \"delivered\": " << sim.stats.packets_delivered
            << ", \"flit_events\": " << sim.stats.flit_events << "}";
      } else {
        out << "null";
      }
      out << "}" << (t + 1 < result.selection.candidates.size() ? "," : "")
          << "\n";
    }
    out << "    ]}" << (p + 1 < report.results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"winners\": [\n";
  for (std::size_t w = 0; w < report.winners.size(); ++w) {
    const auto& best = report.winners[w];
    out << "    {\"objective\": "
        << json_string(mapping::to_string(best.objective));
    if (best.found()) {
      const auto& result =
          report.results[static_cast<std::size_t>(best.point_index)];
      const auto& candidate =
          result.selection
              .candidates[static_cast<std::size_t>(best.topology_index)];
      out << ", \"point\": " << best.point_index
          << ", \"label\": " << json_string(result.point.label())
          << ", \"topology\": " << json_string(candidate.topology->name())
          << ", \"cost\": " << json_number(candidate.result.eval.cost);
    } else {
      out << ", \"point\": null, \"topology\": null, \"cost\": null";
    }
    out << "}" << (w + 1 < report.winners.size() ? "," : "") << "\n";
  }
  // Simulated-delay winners (--sim-rank): one entry per objective group,
  // parallel to "winners"; the array is empty when the re-rank was off.
  out << "  ],\n  \"sim_winners\": [\n";
  for (std::size_t w = 0; w < report.sim_winners.size(); ++w) {
    const auto& best = report.sim_winners[w];
    out << "    {\"objective\": "
        << json_string(mapping::to_string(best.objective));
    if (best.found()) {
      const auto& result =
          report.results[static_cast<std::size_t>(best.point_index)];
      const auto& candidate =
          result.selection
              .candidates[static_cast<std::size_t>(best.topology_index)];
      out << ", \"point\": " << best.point_index
          << ", \"label\": " << json_string(result.point.label())
          << ", \"topology\": " << json_string(candidate.topology->name())
          << ", \"sim_latency_cycles\": "
          << (candidate.sim.has_value()
                  ? json_number(candidate.sim->simulated_latency_cycles)
                  : std::string("null"))
          << ", \"cost\": " << json_number(candidate.result.eval.cost);
    } else {
      out << ", \"point\": null, \"topology\": null, "
             "\"sim_latency_cycles\": null, \"cost\": null";
    }
    out << "}" << (w + 1 < report.sim_winners.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pareto\": [\n";
  for (std::size_t i = 0; i < report.pareto.size(); ++i) {
    out << "    {\"area_mm2\": " << json_number(report.pareto[i].area_mm2)
        << ", \"power_mw\": " << json_number(report.pareto[i].power_mw) << "}"
        << (i + 1 < report.pareto.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace sunmap::io
