#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "io/csv.h"
#include "topo/library.h"

namespace sunmap::io {
namespace {

TEST(Csv, SelectionReportHasHeaderAndRows) {
  const auto app = apps::dsp_filter();
  const auto library = topo::standard_library(app.num_cores());
  mapping::MapperConfig config;
  config.link_bandwidth_mbps = 1000.0;
  select::TopologySelector selector(config);
  const auto report = selector.select(app, library);

  const auto csv = selection_report_csv(report);
  // Header + one line per candidate.
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, static_cast<long>(report.candidates.size()) + 1);
  EXPECT_EQ(csv.rfind("topology,feasible,", 0), 0u);
  for (const auto& candidate : report.candidates) {
    EXPECT_NE(csv.find(candidate.topology->name()), std::string::npos);
  }

  // Every numeric field reads back as exactly the evaluated double.
  std::istringstream rows(csv);
  std::string line;
  std::getline(rows, line);  // header
  for (const auto& candidate : report.candidates) {
    ASSERT_TRUE(std::getline(rows, line));
    std::vector<std::string> fields;
    std::istringstream cells(line);
    for (std::string cell; std::getline(cells, cell, ',');) {
      fields.push_back(cell);
    }
    ASSERT_EQ(fields.size(), 10u) << line;
    const auto& eval = candidate.result.eval;
    const double expected[] = {
        eval.avg_switch_hops,  eval.avg_path_latency_ns,
        eval.design_area_mm2,  eval.design_power_mw,
        eval.dynamic_power_mw, eval.static_power_mw,
        eval.max_link_load_mbps, eval.cost};
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(std::strtod(fields[i + 2].c_str(), nullptr), expected[i])
          << line << " field " << i + 2;
    }
  }
}

TEST(Csv, QuotesFieldsWithCommas) {
  // Topology names like "4-ary 2-fly" have no commas, but the quoting path
  // must still be correct for custom names.
  EXPECT_EQ(csv_field("4-ary 2-fly"), "4-ary 2-fly");
  EXPECT_EQ(csv_field("ring,6"), "\"ring,6\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, WriteFileRoundTrips) {
  const auto path =
      (std::filesystem::temp_directory_path() / "sunmap_csv_test.csv")
          .string();
  write_file(path, "a,b\n1,2\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "a,b\n1,2\n");
  std::filesystem::remove(path);
}

TEST(Csv, WriteFileFailsOnBadPath) {
  EXPECT_THROW(write_file("/nonexistent_dir/x.csv", "data"),
               std::runtime_error);
}

}  // namespace
}  // namespace sunmap::io
