// Experiment TAB-RT — backs two of the paper's performance claims:
//  * §6.4: "NoC selection and generation was obtained in few minutes on a
//    1 GHz SUN workstation" — full-library selection runtime vs core count.
//  * §4.1: "As the minimum-path computations are performed on the quadrant
//    graph instead of the entire NoC graph, large computational time
//    savings is achieved" — Dijkstra restricted to the quadrant vs the full
//    switch graph.
//
// It also hosts the cross-PR perf probe for the incremental
// mapping-evaluation engine: a one-shot wall-clock measurement of
// Mapper::map with greedy swaps on the 64-core synthetic mesh. `--json`
// writes BENCH_mapping_scaling.json (bench/probe.h). Its wall_ms is the
// search alone; the search's cost, evaluated/pruned counts and feasibility
// are invariants, so the gate fails when the search semantics drift.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "bench/probe.h"
#include "graph/paths.h"
#include "select/selector.h"
#include "topo/library.h"
#include "util/table.h"

#include <chrono>
#include <string>

namespace {

using namespace sunmap;

apps::SyntheticSpec spec_for(int cores) {
  apps::SyntheticSpec spec;
  spec.num_cores = cores;
  spec.edge_density = 0.12;
  spec.max_bandwidth_mbps = 400.0;
  spec.seed = 42;
  return spec;
}

/// One-shot probe of the mapping search on the 64-core synthetic mesh — the
/// reference workload for the evaluation-engine speedup. A single run (not a
/// google-benchmark loop) because one search already evaluates thousands of
/// candidate mappings, and because the probe's mapping/cost are part of the
/// contract: they must stay identical as the engine gets faster.
void run_mapping_probe(bench::Probe& probe) {
  constexpr int kCores = 64;
  const auto app = apps::synthetic(spec_for(kCores));
  const auto mesh = topo::make_mesh_for(kCores);
  auto config = sunmap::bench::video_config();
  // Feasible from the initial greedy mapping onwards (the peak link load of
  // the 64-core workload is ~3.4 GB/s), so the bound-based pruning of the
  // two-phase evaluation is exercised, as in production-sized searches.
  config.link_bandwidth_mbps = 4000.0;
  mapping::Mapper mapper(config);

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = mapper.map(app, *mesh);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  bench::print_heading(
      "Mapping-search probe: Mapper::map, greedy swaps, 64-core synthetic "
      "mesh (the cross-PR perf trajectory)");
  util::Table table({"wall ms", "evaluated", "pruned", "cost", "feasible"});
  table.add_row({util::Table::num(wall_ms, 1),
                 std::to_string(result.evaluated_mappings),
                 std::to_string(result.pruned_mappings),
                 util::Table::num(result.eval.cost, 4),
                 result.eval.feasible() ? "yes" : "no"});
  std::printf("%s", table.to_string().c_str());

  probe.wall_ms(wall_ms);
  probe.invariant("cost", result.eval.cost);
  probe.invariant("evaluated_mappings", result.evaluated_mappings);
  probe.invariant("pruned_mappings", result.pruned_mappings);
  probe.invariant("feasible", result.eval.feasible());
  probe.row("workload", {{"cores", kCores},
                         {"topology", mesh->name()},
                         {"routing", route::to_string(config.routing)},
                         {"objective", mapping::to_string(config.objective)},
                         {"link_bandwidth_mbps", config.link_bandwidth_mbps},
                         {"swap_passes", config.swap_passes}});
}

void print_quadrant_sizes() {
  bench::print_heading(
      "Quadrant graph size vs full NoC graph (the source of the paper's "
      "'large computational time savings')");
  util::Table table({"mesh", "switches", "avg quadrant nodes",
                     "largest quadrant"});
  for (int cores : {16, 36, 64}) {
    const auto mesh = topo::make_mesh_for(cores);
    double total = 0.0;
    int count = 0;
    int largest = 0;
    for (int a = 0; a < mesh->num_slots(); ++a) {
      for (int b = 0; b < mesh->num_slots(); ++b) {
        if (a == b) continue;
        const int size = static_cast<int>(mesh->quadrant_nodes(a, b).size());
        total += size;
        largest = std::max(largest, size);
        ++count;
      }
    }
    table.add_row({mesh->name(), std::to_string(mesh->num_switches()),
                   util::Table::num(total / count, 1),
                   std::to_string(largest)});
  }
  std::printf("%s", table.to_string().c_str());
}

void BM_SelectionScaling(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  const auto app = apps::synthetic(spec_for(cores));
  const auto library = topo::standard_library(cores);
  auto config = sunmap::bench::video_config();
  config.link_bandwidth_mbps = 2000.0;  // keep feasibility out of the timing
  select::TopologySelector selector(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(app, library));
  }
  state.SetLabel(std::to_string(cores) + " cores, full library");
}
BENCHMARK(BM_SelectionScaling)
    ->Arg(9)
    ->Arg(16)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond);

void BM_DijkstraQuadrantVsFull(benchmark::State& state) {
  const bool use_quadrant = state.range(0) != 0;
  const auto mesh = topo::make_mesh_for(64);
  const auto& g = mesh->switch_graph();
  // A mid-distance pair: quadrant is a fraction of the 8x8 mesh.
  const int src = 9, dst = 36;
  std::vector<char> admitted(static_cast<std::size_t>(g.num_nodes()), 0);
  for (graph::NodeId u : mesh->quadrant_nodes(src, dst)) {
    admitted[static_cast<std::size_t>(u)] = 1;
  }
  const auto cost = [](graph::EdgeId) { return 1.0; };
  for (auto _ : state) {
    if (use_quadrant) {
      benchmark::DoNotOptimize(graph::shortest_path(
          g, mesh->ingress_switch(src), mesh->egress_switch(dst), cost,
          [&](graph::NodeId u) {
            return admitted[static_cast<std::size_t>(u)] != 0;
          }));
    } else {
      benchmark::DoNotOptimize(graph::shortest_path(
          g, mesh->ingress_switch(src), mesh->egress_switch(dst), cost));
    }
  }
  state.SetLabel(use_quadrant ? "quadrant graph" : "full NoC graph");
}
BENCHMARK(BM_DijkstraQuadrantVsFull)->Arg(0)->Arg(1);

void BM_SwapSearchCost(benchmark::State& state) {
  const int passes = static_cast<int>(state.range(0));
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  auto config = sunmap::bench::video_config();
  config.swap_passes = passes;
  mapping::Mapper mapper(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(app, *mesh));
  }
  state.SetLabel(std::to_string(passes) + " swap passes");
}
BENCHMARK(BM_SwapSearchCost)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sunmap::bench::Probe probe("mapping_scaling", argc, argv);
  print_quadrant_sizes();
  run_mapping_probe(probe);
  const int status = probe.finish();
  if (status != 0) return status;
  return sunmap::bench::run_benchmarks(argc, argv);
}
