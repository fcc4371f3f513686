#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

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
