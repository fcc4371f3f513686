// Ablation ABL-SEARCH — design-choice ablations of the mapping engine (README
// "Search strategies"):
//  * greedy initial mapping + pairwise swaps (the paper's Fig 5 algorithm)
//    vs simulated annealing, on cost and evaluations spent;
//  * rip-up-and-reroute refinement on vs off for split-across-all-paths
//    routing (off reproduces Fig 5 literally; on is what makes the MPEG4
//    mesh mapping feasible at 500 MB/s);
//  * swap passes sweep (0 = greedy initial only).

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "topo/library.h"
#include "util/table.h"

namespace {

using namespace sunmap;

void print_search_comparison() {
  bench::print_heading(
      "Search strategy ablation (VOPD, MPEG4, MWD on mesh; min-delay)");
  util::Table table({"app", "strategy", "cost", "feasible", "evaluations"});
  struct Workload {
    const char* name;
    mapping::CoreGraph app;
    route::RoutingKind routing;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"vopd", apps::vopd(), route::RoutingKind::kMinPath});
  workloads.push_back({"mpeg4", apps::mpeg4(), route::RoutingKind::kSplitAll});
  workloads.push_back({"mwd", apps::mwd(), route::RoutingKind::kMinPath});

  for (const auto& workload : workloads) {
    const auto mesh = topo::make_mesh_for(workload.app.num_cores());
    for (auto strategy : {mapping::SearchKind::kGreedySwaps,
                          mapping::SearchKind::kAnnealing}) {
      auto config = bench::video_config();
      config.routing = workload.routing;
      config.search = strategy;
      config.annealing_iterations = 800;
      mapping::Mapper mapper(config);
      const auto result = mapper.map(workload.app, *mesh);
      table.add_row({workload.name, mapping::to_string(strategy),
                     util::Table::num(result.eval.cost),
                     result.eval.feasible() ? "yes" : "no",
                     std::to_string(result.evaluated_mappings)});
    }
  }
  std::printf("%s", table.to_string().c_str());
}

void print_reroute_ablation() {
  bench::print_heading(
      "Rip-up-and-reroute ablation (MPEG4 on mesh, split-all routing; 0 "
      "passes = the literal Fig 5 sequential pass)");
  util::Table table({"reroute passes", "min BW (MB/s)", "feasible @500"});
  const auto app = apps::mpeg4();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  for (int passes : {0, 1, 2, 4}) {
    auto config = bench::video_config();
    config.routing = route::RoutingKind::kSplitAll;
    config.reroute_passes = passes;
    mapping::Mapper mapper(config);
    const auto result = mapper.map(app, *mesh);
    table.add_row({std::to_string(passes),
                   util::Table::num(result.eval.max_link_load_mbps, 1),
                   result.eval.max_link_load_mbps <= 500.0 ? "yes" : "no"});
  }
  std::printf("%s", table.to_string().c_str());
}

void print_swap_pass_sweep() {
  bench::print_heading("Swap-pass sweep (VOPD on mesh)");
  util::Table table({"swap passes", "avg hops", "evaluations"});
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  for (int passes : {0, 1, 2, 4}) {
    auto config = bench::video_config();
    config.swap_passes = passes;
    mapping::Mapper mapper(config);
    const auto result = mapper.map(app, *mesh);
    table.add_row({std::to_string(passes),
                   util::Table::num(result.eval.avg_switch_hops),
                   std::to_string(result.evaluated_mappings)});
  }
  std::printf("%s", table.to_string().c_str());
}

void BM_AnnealingVopd(benchmark::State& state) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  auto config = bench::video_config();
  config.search = mapping::SearchKind::kAnnealing;
  config.annealing_iterations = static_cast<int>(state.range(0));
  mapping::Mapper mapper(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(app, *mesh));
  }
  state.SetLabel(std::to_string(state.range(0)) + " iterations");
}
BENCHMARK(BM_AnnealingVopd)
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_search_comparison();
  print_reroute_ablation();
  print_swap_pass_sweep();
  return sunmap::bench::run_benchmarks(argc, argv);
}
