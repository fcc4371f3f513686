#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "sim/traffic.h"

namespace sunmap::sim {
namespace {

TEST(Pattern, Labels) {
  EXPECT_STREQ(to_string(Pattern::kUniform), "uniform");
  EXPECT_STREQ(to_string(Pattern::kTranspose), "transpose");
  EXPECT_STREQ(to_string(Pattern::kBitComplement), "bit-complement");
  EXPECT_STREQ(to_string(Pattern::kTornado), "tornado");
}

TEST(PatternTraffic, UniformDestinationsAreValidAndNotSelf) {
  PatternTraffic traffic(16, Pattern::kUniform, 0.1, 4);
  util::Prng prng(1);
  for (int i = 0; i < 1000; ++i) {
    const int src = i % 16;
    const int dst = traffic.destination(src, prng);
    EXPECT_GE(dst, 0);
    EXPECT_LT(dst, 16);
    EXPECT_NE(dst, src);
  }
}

TEST(PatternTraffic, UniformCoversAllDestinations) {
  PatternTraffic traffic(8, Pattern::kUniform, 0.1, 4);
  util::Prng prng(2);
  std::map<int, int> seen;
  for (int i = 0; i < 2000; ++i) ++seen[traffic.destination(0, prng)];
  EXPECT_EQ(seen.size(), 7u);  // all but the source itself
}

TEST(PatternTraffic, TransposeIsSelfInverseOnSquareGrid) {
  PatternTraffic traffic(16, Pattern::kTranspose, 0.1, 4);
  util::Prng prng(3);
  for (int src = 0; src < 16; ++src) {
    const int once = traffic.destination(src, prng);
    const int twice = traffic.destination(once, prng);
    EXPECT_EQ(twice, src);
  }
}

TEST(PatternTraffic, BitComplementIsSelfInverse) {
  PatternTraffic traffic(16, Pattern::kBitComplement, 0.1, 4);
  util::Prng prng(4);
  for (int src = 0; src < 16; ++src) {
    const int dst = traffic.destination(src, prng);
    EXPECT_EQ(traffic.destination(dst, prng), src);
    EXPECT_NE(dst, src);
  }
}

TEST(PatternTraffic, TornadoShiftsHalfway) {
  PatternTraffic traffic(16, Pattern::kTornado, 0.1, 4);
  util::Prng prng(5);
  EXPECT_EQ(traffic.destination(0, prng), 7);
  EXPECT_EQ(traffic.destination(10, prng), 1);
}

TEST(PatternTraffic, HotspotBiasesDestination) {
  PatternTraffic traffic(16, Pattern::kHotspot, 0.1, 4);
  traffic.set_hotspot(5, 0.8);
  util::Prng prng(6);
  int hits = 0;
  for (int i = 0; i < 5000; ++i) {
    if (traffic.destination(0, prng) == 5) ++hits;
  }
  EXPECT_GT(hits, 3500);
}

TEST(PatternTraffic, InjectionRateMatchesOfferedLoad) {
  // 0.2 flits/cycle/node with 4-flit packets -> 0.05 packets/cycle/node.
  PatternTraffic traffic(16, Pattern::kUniform, 0.2, 4);
  util::Prng prng(7);
  std::vector<std::pair<int, int>> out;
  const int cycles = 20000;
  for (int c = 0; c < cycles; ++c) traffic.injections(c, prng, out);
  const double per_node =
      static_cast<double>(out.size()) / (16.0 * cycles);
  EXPECT_NEAR(per_node, 0.05, 0.005);
}

TEST(PatternTraffic, ValidatesArguments) {
  EXPECT_THROW(PatternTraffic(1, Pattern::kUniform, 0.1, 4),
               std::invalid_argument);
  EXPECT_THROW(PatternTraffic(8, Pattern::kUniform, -0.1, 4),
               std::invalid_argument);
  EXPECT_THROW(PatternTraffic(8, Pattern::kUniform, 0.1, 0),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PatternTraffic(8, Pattern::kUniform, nan, 4),
               std::invalid_argument);
  EXPECT_THROW(PatternTraffic(8, Pattern::kUniform,
                              std::numeric_limits<double>::infinity(), 4),
               std::invalid_argument);
  PatternTraffic traffic(8, Pattern::kHotspot, 0.1, 4);
  EXPECT_THROW(traffic.set_hotspot(9, 0.5), std::invalid_argument);
  EXPECT_THROW(traffic.set_hotspot(0, 1.5), std::invalid_argument);
  EXPECT_THROW(traffic.set_hotspot(0, nan), std::invalid_argument);
}

TEST(TraceTraffic, RatesScaleWithBandwidth) {
  std::vector<TrafficFlow> flows{{0, 1, 1000.0}, {2, 3, 500.0}};
  TraceTraffic traffic(flows, 4, 0.4);  // 1 GB/s == 0.4 flits/cycle
  util::Prng prng(8);
  std::vector<std::pair<int, int>> out;
  const int cycles = 40000;
  for (int c = 0; c < cycles; ++c) traffic.injections(c, prng, out);
  int first = 0;
  int second = 0;
  for (const auto& [src, dst] : out) {
    if (src == 0) ++first;
    if (src == 2) ++second;
  }
  EXPECT_NEAR(static_cast<double>(first) / second, 2.0, 0.3);
  EXPECT_NEAR(traffic.offered_flits_per_cycle(), 0.4 + 0.2, 1e-9);
}

TEST(TraceTraffic, ValidatesFlows) {
  EXPECT_THROW(TraceTraffic({{0, 1, -5.0}}, 4, 0.1), std::invalid_argument);
  EXPECT_THROW(TraceTraffic({{0, 1, 100.0}}, 0, 0.1), std::invalid_argument);
  // A flow needing more than one packet per cycle cannot be modelled.
  EXPECT_THROW(TraceTraffic({{0, 1, 100000.0}}, 4, 1.0),
               std::invalid_argument);
  // NaN fails every comparison, so the range checks alone let it through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TraceTraffic({{0, 1, nan}}, 4, 0.1), std::invalid_argument);
  EXPECT_THROW(TraceTraffic({{0, 1, inf}}, 4, 0.1), std::invalid_argument);
  EXPECT_THROW(TraceTraffic({{0, 1, 100.0}}, 4, nan), std::invalid_argument);
  EXPECT_THROW(TraceTraffic({{0, 1, 100.0}}, 4, inf), std::invalid_argument);
  try {
    TraceTraffic({{0, 1, nan}}, 4, 0.1);
    ADD_FAILURE() << "a NaN flow rate was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rate_mbps"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nan"), std::string::npos);
  }
}

}  // namespace
}  // namespace sunmap::sim
