#include "apps/apps.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/prng.h"

namespace sunmap::apps {

using fplan::BlockShape;
using mapping::CoreGraph;

CoreGraph vopd() {
  CoreGraph app("vopd");
  app.add_core("vld", 3.0);
  app.add_core("run_le_dec", 2.5);
  app.add_core("inv_scan", 2.5);
  app.add_core("acdc_pred", 3.5);
  app.add_core("stripe_mem", BlockShape::hard_block(2.0, 2.0));
  app.add_core("iquant", 3.0);
  app.add_core("idct", 4.5);
  app.add_core("up_samp", 4.0);
  app.add_core("vop_rec", 4.0);
  app.add_core("pad", 3.5);
  app.add_core("vop_mem", BlockShape::hard_block(2.5, 2.6));
  app.add_core("arm", 6.0);

  auto flow = [&](const char* a, const char* b, double mbps) {
    app.add_flow(app.core_index(a), app.core_index(b), mbps);
  };
  flow("vld", "run_le_dec", 70);
  flow("run_le_dec", "inv_scan", 362);
  flow("inv_scan", "acdc_pred", 362);
  flow("acdc_pred", "stripe_mem", 49);
  flow("stripe_mem", "iquant", 27);
  flow("acdc_pred", "iquant", 362);
  flow("iquant", "idct", 357);
  flow("idct", "up_samp", 353);
  flow("up_samp", "vop_rec", 300);
  flow("vop_rec", "vop_mem", 313);
  flow("vop_mem", "up_samp", 500);
  flow("pad", "vop_mem", 313);
  flow("arm", "pad", 16);
  flow("pad", "arm", 94);
  return app;
}

CoreGraph mpeg4() {
  CoreGraph app("mpeg4");
  app.add_core("vu", 4.5);
  app.add_core("au", 3.0);
  app.add_core("med_cpu", 6.0);
  app.add_core("rast", 3.5);
  app.add_core("adsp", 4.0);
  app.add_core("idct_etc", 5.0);
  app.add_core("up_samp", 4.0);
  app.add_core("bab", 3.5);
  app.add_core("risc", 5.5);
  app.add_core("sram1", BlockShape::hard_block(2.2, 2.3));
  app.add_core("sram2", BlockShape::hard_block(2.2, 2.3));
  app.add_core("sdram", BlockShape::hard_block(3.0, 3.0));

  auto flow = [&](const char* a, const char* b, double mbps) {
    app.add_flow(app.core_index(a), app.core_index(b), mbps);
  };
  // The shared SDRAM is the hotspot: several flows individually approach or
  // exceed a 500 MB/s link, so single-path routing cannot be feasible.
  flow("med_cpu", "sdram", 600);
  flow("sdram", "idct_etc", 600);
  flow("sdram", "up_samp", 910);
  flow("risc", "sdram", 670);
  flow("vu", "sdram", 190);
  flow("rast", "sdram", 40);
  flow("adsp", "sdram", 40);
  flow("au", "sdram", 0.5);
  flow("bab", "sdram", 32);
  flow("risc", "sram1", 500);
  flow("risc", "sram2", 250);
  flow("bab", "sram2", 173);
  return app;
}

CoreGraph dsp_filter() {
  CoreGraph app("dsp_filter");
  app.add_core("arm", 6.0);
  app.add_core("memory", BlockShape::hard_block(2.2, 2.3));
  app.add_core("display", 4.0);
  app.add_core("fft", 4.5);
  app.add_core("ifft", 4.5);
  app.add_core("filter", 4.0);

  auto flow = [&](const char* a, const char* b, double mbps) {
    app.add_flow(app.core_index(a), app.core_index(b), mbps);
  };
  flow("arm", "memory", 200);
  flow("memory", "arm", 200);
  flow("arm", "display", 200);
  flow("memory", "fft", 200);
  flow("fft", "filter", 600);
  flow("filter", "ifft", 600);
  flow("ifft", "memory", 200);
  flow("memory", "display", 200);
  return app;
}

CoreGraph netproc16() {
  CoreGraph app("netproc16");
  for (int i = 0; i < 16; ++i) {
    app.add_core("node" + std::to_string(i), 3.0);
  }
  // Uniform pattern: every node talks to its ring successor, a mid-range
  // node, and the node halfway across, like packets fanning out of each
  // request generator (Fig 8(a)).
  for (int i = 0; i < 16; ++i) {
    app.add_flow(i, (i + 1) % 16, 400.0);
    app.add_flow(i, (i + 5) % 16, 300.0);
    app.add_flow(i, (i + 8) % 16, 200.0);
  }
  return app;
}

CoreGraph pip() {
  CoreGraph app("pip");
  app.add_core("inp_mem", BlockShape::hard_block(2.0, 2.0));
  app.add_core("hs", 2.5);
  app.add_core("vs", 2.5);
  app.add_core("jug1", 2.0);
  app.add_core("jug2", 2.0);
  app.add_core("mem", BlockShape::hard_block(2.2, 2.2));
  app.add_core("hvs", 3.0);
  app.add_core("op_disp", 3.5);

  auto flow = [&](const char* a, const char* b, double mbps) {
    app.add_flow(app.core_index(a), app.core_index(b), mbps);
  };
  flow("inp_mem", "hs", 128);
  flow("hs", "vs", 64);
  flow("vs", "jug1", 64);
  flow("jug1", "mem", 64);
  flow("inp_mem", "jug2", 64);
  flow("jug2", "mem", 64);
  flow("mem", "hvs", 128);
  flow("hvs", "op_disp", 64);
  return app;
}

CoreGraph mwd() {
  CoreGraph app("mwd");
  app.add_core("in", 2.5);
  app.add_core("nr", 3.0);
  app.add_core("hs", 2.5);
  app.add_core("vs", 2.5);
  app.add_core("hvs", 3.0);
  app.add_core("jug1", 2.0);
  app.add_core("jug2", 2.0);
  app.add_core("mem1", BlockShape::hard_block(2.0, 2.0));
  app.add_core("mem2", BlockShape::hard_block(2.0, 2.0));
  app.add_core("mem3", BlockShape::hard_block(2.0, 2.0));
  app.add_core("se", 2.5);
  app.add_core("blend", 3.0);

  auto flow = [&](const char* a, const char* b, double mbps) {
    app.add_flow(app.core_index(a), app.core_index(b), mbps);
  };
  flow("in", "nr", 128);
  flow("in", "hs", 64);
  flow("nr", "mem1", 64);
  flow("nr", "mem2", 64);
  flow("mem1", "hs", 64);
  flow("hs", "vs", 96);
  flow("vs", "mem3", 96);
  flow("mem3", "hvs", 96);
  flow("hvs", "jug1", 96);
  flow("mem2", "jug2", 96);
  flow("jug1", "blend", 96);
  flow("jug2", "se", 96);
  flow("se", "blend", 64);
  return app;
}

std::optional<CoreGraph> by_name(const std::string& name) {
  if (name == "vopd") return vopd();
  if (name == "mpeg4") return mpeg4();
  if (name == "dsp") return dsp_filter();
  if (name == "netproc16") return netproc16();
  if (name == "pip") return pip();
  if (name == "mwd") return mwd();
  return std::nullopt;
}

CoreGraph synthetic(const SyntheticSpec& spec) {
  if (spec.num_cores < 2) {
    throw std::invalid_argument("synthetic: need at least two cores");
  }
  if (spec.edge_density < 0.0 || spec.edge_density > 1.0) {
    throw std::invalid_argument("synthetic: edge_density must be in [0, 1]");
  }
  if (spec.min_bandwidth_mbps <= 0.0 ||
      spec.max_bandwidth_mbps < spec.min_bandwidth_mbps) {
    throw std::invalid_argument("synthetic: invalid bandwidth range");
  }

  util::Prng prng(spec.seed);
  CoreGraph app("synthetic" + std::to_string(spec.num_cores) + "_" +
                std::to_string(spec.seed));
  for (int i = 0; i < spec.num_cores; ++i) {
    const double area =
        spec.min_core_area_mm2 +
        prng.next_double() * (spec.max_core_area_mm2 - spec.min_core_area_mm2);
    app.add_core("core" + std::to_string(i), area);
  }

  auto bandwidth = [&]() {
    return spec.min_bandwidth_mbps +
           prng.next_double() *
               (spec.max_bandwidth_mbps - spec.min_bandwidth_mbps);
  };

  // Random spanning chain keeps the graph weakly connected.
  std::vector<int> order(static_cast<std::size_t>(spec.num_cores));
  for (int i = 0; i < spec.num_cores; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  std::shuffle(order.begin(), order.end(), prng);
  for (int i = 0; i + 1 < spec.num_cores; ++i) {
    app.add_flow(order[static_cast<std::size_t>(i)],
                 order[static_cast<std::size_t>(i + 1)], bandwidth());
  }
  for (int i = 0; i < spec.num_cores; ++i) {
    for (int j = 0; j < spec.num_cores; ++j) {
      if (i == j || app.graph().has_edge(i, j)) continue;
      if (prng.chance(spec.edge_density)) {
        app.add_flow(i, j, bandwidth());
      }
    }
  }
  return app;
}

}  // namespace sunmap::apps
