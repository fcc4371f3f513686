#include "io/csv.h"

#include <fstream>
#include <stdexcept>

#include "io/exploration_io.h"

namespace sunmap::io {

std::string csv_field(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string selection_report_csv(const select::SelectionReport& report) {
  std::string out =
      "topology,feasible,avg_hops,avg_latency_ns,design_area_mm2,"
      "design_power_mw,dynamic_power_mw,static_power_mw,"
      "min_bandwidth_mbps,cost\n";
  for (const auto& candidate : report.candidates) {
    const auto& eval = candidate.result.eval;
    out += csv_field(candidate.topology->name());
    out += eval.feasible() ? ",1" : ",0";
    for (const double value :
         {eval.avg_switch_hops, eval.avg_path_latency_ns, eval.design_area_mm2,
          eval.design_power_mw, eval.dynamic_power_mw, eval.static_power_mw,
          eval.max_link_load_mbps, eval.cost}) {
      out += ',';
      out += report_number(value);
    }
    out += '\n';
  }
  return out;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("csv: cannot open " + path);
  }
  out << content;
  if (!out) {
    throw std::runtime_error("csv: write failed for " + path);
  }
}

}  // namespace sunmap::io
