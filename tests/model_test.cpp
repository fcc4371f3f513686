#include <gtest/gtest.h>

#include "model/library.h"
#include "model/switch_model.h"
#include "model/tech.h"

namespace sunmap::model {
namespace {

TEST(SwitchModel, AreaIsSumOfComponents) {
  SwitchModel model(TechParams::um100());
  const double total = model.area_mm2(5, 5);
  EXPECT_NEAR(total,
              model.crossbar_area_mm2(5, 5) + model.buffer_area_mm2(5) +
                  model.logic_area_mm2(5, 5),
              1e-12);
}

TEST(SwitchModel, AreaGrowsWithPorts) {
  SwitchModel model(TechParams::um100());
  EXPECT_LT(model.area_mm2(3, 3), model.area_mm2(4, 4));
  EXPECT_LT(model.area_mm2(4, 4), model.area_mm2(5, 5));
  EXPECT_LT(model.area_mm2(5, 5), model.area_mm2(8, 8));
}

TEST(SwitchModel, AreaInPlausibleRangeAt100nm) {
  SwitchModel model(TechParams::um100());
  // A 5x5 xpipes-style switch is a few tenths of a mm^2 at 0.1 um.
  const double area = model.area_mm2(5, 5);
  EXPECT_GT(area, 0.05);
  EXPECT_LT(area, 1.0);
}

TEST(SwitchModel, CrossbarQuadraticInFlitWidth) {
  TechParams narrow = TechParams::um100();
  narrow.flit_width_bits = 16;
  TechParams wide = TechParams::um100();
  wide.flit_width_bits = 32;
  SwitchModel narrow_model(narrow);
  SwitchModel wide_model(wide);
  EXPECT_NEAR(wide_model.crossbar_area_mm2(4, 4),
              4.0 * narrow_model.crossbar_area_mm2(4, 4), 1e-12);
}

TEST(SwitchModel, BufferAreaLinearInDepth) {
  TechParams shallow = TechParams::um100();
  shallow.buffer_depth_flits = 4;
  TechParams deep = TechParams::um100();
  deep.buffer_depth_flits = 8;
  EXPECT_NEAR(SwitchModel(deep).buffer_area_mm2(5),
              2.0 * SwitchModel(shallow).buffer_area_mm2(5), 1e-12);
}

TEST(SwitchModel, EnergyGrowsSuperlinearlyWithRadix) {
  SwitchModel model(TechParams::um100());
  const double e3 = model.energy_pj_per_bit(3, 3);
  const double e4 = model.energy_pj_per_bit(4, 4);
  const double e5 = model.energy_pj_per_bit(5, 5);
  EXPECT_LT(e3, e4);
  EXPECT_LT(e4, e5);
  // Superlinear: marginal cost of the 5th port exceeds that of the 4th.
  EXPECT_GT(e5 - e4, e4 - e3);
}

TEST(SwitchModel, StaticPowerGrowsWithRadix) {
  SwitchModel model(TechParams::um100());
  EXPECT_LT(model.static_power_mw(4, 4), model.static_power_mw(5, 5));
  EXPECT_GT(model.static_power_mw(2, 2), 0.0);
}

TEST(SwitchModel, AsymmetricPortsUseMeanRadix) {
  SwitchModel model(TechParams::um100());
  EXPECT_NEAR(model.energy_pj_per_bit(3, 5), model.energy_pj_per_bit(4, 4),
              1e-12);
}

TEST(SwitchModel, RejectsInvalidPorts) {
  SwitchModel model(TechParams::um100());
  EXPECT_THROW((void)model.area_mm2(0, 4), std::invalid_argument);
  EXPECT_THROW((void)model.energy_pj_per_bit(4, 0), std::invalid_argument);
  EXPECT_THROW((void)model.area_mm2(4, 2000), std::invalid_argument);
}

TEST(LinkModel, EnergyLinearInLength) {
  LinkModel model(TechParams::um100());
  EXPECT_NEAR(model.energy_pj_per_bit(4.0), 2.0 * model.energy_pj_per_bit(2.0),
              1e-12);
}

TEST(LinkModel, PowerArithmetic) {
  TechParams tech = TechParams::um100();
  tech.link_energy_pj_per_bit_mm = 0.5;
  LinkModel model(tech);
  // 1000 MB/s over 2 mm: 8e9 bit/s * 1.0 pJ = 8 mW.
  EXPECT_NEAR(model.power_mw(1000.0, 2.0), 8.0, 1e-9);
  EXPECT_THROW((void)model.power_mw(-1.0, 1.0), std::invalid_argument);
}

TEST(LinkModel, LatencyAtLeastOneCycle) {
  LinkModel model(TechParams::um100());
  EXPECT_EQ(model.latency_cycles(0.5), 1);
  EXPECT_EQ(model.latency_cycles(2.0), 1);
  // 70 ps/mm at 1 GHz: > ~14 mm needs a second cycle.
  EXPECT_EQ(model.latency_cycles(20.0), 2);
}

TEST(AreaPowerLibrary, LookupMatchesDirectModel) {
  const TechParams tech = TechParams::um100();
  AreaPowerLibrary library(tech, 16);
  SwitchModel model(tech);
  for (int in : {1, 3, 5, 8, 16}) {
    for (int out : {1, 4, 7, 16}) {
      const auto& entry = library.lookup(in, out);
      EXPECT_EQ(entry.in_ports, in);
      EXPECT_EQ(entry.out_ports, out);
      EXPECT_NEAR(entry.area_mm2, model.area_mm2(in, out), 1e-12);
      EXPECT_NEAR(entry.energy_pj_per_bit, model.energy_pj_per_bit(in, out),
                  1e-12);
      EXPECT_NEAR(entry.static_power_mw, model.static_power_mw(in, out),
                  1e-12);
    }
  }
}

TEST(AreaPowerLibrary, OutOfRangeThrows) {
  AreaPowerLibrary library(TechParams::um100(), 8);
  EXPECT_THROW((void)library.lookup(9, 4), std::out_of_range);
  EXPECT_THROW((void)library.lookup(4, 0), std::out_of_range);
}

TEST(AreaPowerLibrary, AllEntriesComplete) {
  AreaPowerLibrary library(TechParams::um100(), 6);
  EXPECT_EQ(library.all_entries().size(), 36u);
}

}  // namespace
}  // namespace sunmap::model
