#pragma once

#include <string>

#include "select/selector.h"

namespace sunmap::io {

/// CSV renderings of SUNMAP results, for spreadsheets/plotting scripts.
/// Columns are stable and documented here rather than inferred, so the
/// files are safe to consume programmatically.

/// topology,feasible,avg_hops,avg_latency_ns,design_area_mm2,
/// design_power_mw,dynamic_power_mw,static_power_mw,min_bandwidth_mbps,cost
///
/// Numbers are written by report_number(), so each reads back as exactly
/// the evaluated double.
std::string selection_report_csv(const select::SelectionReport& report);

/// Quotes a CSV field when needed (commas, quotes, or newlines inside),
/// per RFC 4180. Shared by every CSV writer so user-supplied names (custom
/// topologies, core names) cannot shift columns.
std::string csv_field(const std::string& text);

/// Writes content to path, throwing std::runtime_error on failure.
void write_file(const std::string& path, const std::string& content);

}  // namespace sunmap::io
