#include <gtest/gtest.h>

#include <sstream>

#include "apps/apps.h"
#include "io/core_graph_io.h"

namespace sunmap::io {
namespace {

TEST(CoreGraphIo, ParsesMinimalGraph) {
  std::istringstream in(R"(
app tiny
core a 2.0
core b hard 1.5 2.0
flow a b 100
)");
  const auto app = read_core_graph(in);
  EXPECT_EQ(app.name(), "tiny");
  EXPECT_EQ(app.num_cores(), 2);
  EXPECT_EQ(app.num_flows(), 1);
  EXPECT_TRUE(app.core(0).shape.soft);
  EXPECT_FALSE(app.core(1).shape.soft);
  EXPECT_DOUBLE_EQ(app.core(1).shape.width_mm, 1.5);
  EXPECT_DOUBLE_EQ(app.graph().edge(0).weight, 100.0);
}

TEST(CoreGraphIo, ParsesSoftWithAspectRange) {
  std::istringstream in(R"(
app aspects
core x soft 4.0 0.5 2.0
core y 1.0
flow x y 10
)");
  const auto app = read_core_graph(in);
  EXPECT_DOUBLE_EQ(app.core(0).shape.min_aspect, 0.5);
  EXPECT_DOUBLE_EQ(app.core(0).shape.max_aspect, 2.0);
}

TEST(CoreGraphIo, CommentsAndBlanksIgnored) {
  std::istringstream in(R"(
# a comment
app commented   # trailing comment

core a 1.0
core b 1.0  # another
flow a b 5
)");
  const auto app = read_core_graph(in);
  EXPECT_EQ(app.num_cores(), 2);
}

TEST(CoreGraphIo, FlowMayPrecedeCoreDefinitions) {
  // Flows are resolved after the whole file is read.
  std::istringstream in(R"(
app forward
flow a b 10
core a 1.0
core b 1.0
)");
  const auto app = read_core_graph(in);
  EXPECT_EQ(app.num_flows(), 1);
}

TEST(CoreGraphIo, ErrorsCarryLineNumbers) {
  std::istringstream missing_app("core a 1.0\n");
  EXPECT_THROW(
      {
        try {
          read_core_graph(missing_app);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(CoreGraphIo, RejectsMalformedInput) {
  auto parse = [](const char* text) {
    std::istringstream in(text);
    return read_core_graph(in);
  };
  EXPECT_THROW(parse("app x\ncore a notanumber\n"), std::runtime_error);
  EXPECT_THROW(parse("app x\nbogus y\n"), std::runtime_error);
  EXPECT_THROW(parse("app x\napp y\n"), std::runtime_error);
  EXPECT_THROW(parse("app x\ncore a 1.0 extra\n"), std::runtime_error);
  EXPECT_THROW(parse("app x\ncore a soft 1.0 2.0 0.5\n"),
               std::runtime_error);  // inverted aspect range
  EXPECT_THROW(parse("app x\ncore a 1.0\nflow a missing 5\n"),
               std::runtime_error);
  EXPECT_THROW(parse(""), std::runtime_error);
}

TEST(CoreGraphIo, RejectsNonFiniteAndNonPositiveValuesNamingLineAndValue) {
  struct Case {
    const char* text;
    const char* line;
    const char* value;
  };
  const Case cases[] = {
      {"app x\ncore a 1.0\ncore b nan\n", "line 3", "got nan"},
      {"app x\ncore a 1.0\ncore b -1\n", "line 3", "got -1"},
      {"app x\ncore a 1.0\ncore b inf\n", "line 3", "got inf"},
      {"app x\ncore a 1.0\ncore b hard 0 1\n", "line 3", "width"},
      {"app x\ncore a soft 2.0 0 3\n", "line 2", "min aspect"},
      {"app x\ncore a 1.0\ncore b 1.0\nflow a b nan\n", "line 4",
       "got nan"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    try {
      (void)read_core_graph(in);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(c.line), std::string::npos) << message;
      EXPECT_NE(message.find(c.value), std::string::npos) << message;
    }
  }
}

TEST(CoreGraphIo, RoundTripsBuiltinApps) {
  for (const auto& app :
       {apps::vopd(), apps::mpeg4(), apps::dsp_filter(), apps::netproc16()}) {
    std::istringstream in(core_graph_to_string(app));
    const auto parsed = read_core_graph(in);
    ASSERT_EQ(parsed.num_cores(), app.num_cores());
    ASSERT_EQ(parsed.num_flows(), app.num_flows());
    EXPECT_EQ(parsed.name(), app.name());
    for (int c = 0; c < app.num_cores(); ++c) {
      EXPECT_EQ(parsed.core(c).name, app.core(c).name);
      EXPECT_NEAR(parsed.core(c).shape.area_mm2, app.core(c).shape.area_mm2,
                  1e-9);
      EXPECT_EQ(parsed.core(c).shape.soft, app.core(c).shape.soft);
    }
    for (int e = 0; e < app.num_flows(); ++e) {
      EXPECT_EQ(parsed.graph().edge(e).src, app.graph().edge(e).src);
      EXPECT_EQ(parsed.graph().edge(e).dst, app.graph().edge(e).dst);
      EXPECT_NEAR(parsed.graph().edge(e).weight, app.graph().edge(e).weight,
                  1e-9);
    }
  }
}

TEST(CoreGraphIo, MissingFileThrows) {
  EXPECT_THROW(read_core_graph_file("/nonexistent/sunmap.cg"),
               std::runtime_error);
}

}  // namespace
}  // namespace sunmap::io
