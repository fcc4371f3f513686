// Experiment EXPLORE — the cross-PR perf probe for the batched
// design-space exploration API. Two grids over the VOPD decoder and the
// full standard topology library, each run two ways:
//
//  * sweep — 3 objectives x 4 routing functions (the grid behind Figs 6/7);
//  * grid  — the same plus a 2-value link-bandwidth axis (the paper's
//            §6.3 bandwidth exploration, Fig 9(a)): 24 design points.
//
//  * naive   — TopologySelector::select once per configuration, re-paying
//              the per-topology context construction and every evaluation
//              from scratch for each design point;
//  * batched — one DesignSpaceExplorer::explore call, which builds one
//              evaluation context per topology, re-binds it across the
//              grid, and shares the context's floorplan/metrics caches
//              between design points.
//
// The probe asserts the two are bit-identical (mappings, evaluations,
// winners) and reports the wall-clock ratio; `--json` writes
// BENCH_exploration.json (bench/probe.h) with the bit_identical invariant
// and the batched grid's wall time as wall_ms. The binary exits nonzero
// when the batched report diverges or builds more than one context per
// topology. Both sides run single-threaded so the ratio isolates the
// structural reuse; the explorer's cross-topology parallelism multiplies on
// top.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "bench/probe.h"
#include "mapping/eval_context.h"
#include "select/explorer.h"
#include "topo/library.h"
#include "util/table.h"

#include <chrono>
#include <string>
#include <vector>

namespace {

using namespace sunmap;

constexpr mapping::Objective kObjectives[] = {mapping::Objective::kMinDelay,
                                              mapping::Objective::kMinArea,
                                              mapping::Objective::kMinPower};

select::ExplorationRequest sweep_request(
    const mapping::CoreGraph& app,
    const std::vector<std::unique_ptr<topo::Topology>>& library,
    bool bandwidth_axis) {
  select::ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.base = sunmap::bench::video_config();
  request.objectives.assign(std::begin(kObjectives), std::end(kObjectives));
  request.routings.assign(std::begin(route::kAllRoutingKinds),
                          std::end(route::kAllRoutingKinds));
  if (bandwidth_axis) request.link_bandwidths_mbps = {500.0, 1000.0};
  return request;
}

/// The per-config loop the explorer replaces: select() per design point.
std::vector<select::SelectionReport> run_naive(
    const mapping::CoreGraph& app,
    const std::vector<std::unique_ptr<topo::Topology>>& library,
    const std::vector<select::DesignPoint>& points) {
  std::vector<select::SelectionReport> reports;
  reports.reserve(points.size());
  for (const auto& point : points) {
    select::TopologySelector selector(point.config);
    reports.push_back(selector.select(app, library));
  }
  return reports;
}

bool same_eval(const mapping::Evaluation& a, const mapping::Evaluation& b) {
  return a.feasible() == b.feasible() && a.cost == b.cost &&
         a.avg_switch_hops == b.avg_switch_hops &&
         a.avg_path_latency_ns == b.avg_path_latency_ns &&
         a.design_area_mm2 == b.design_area_mm2 &&
         a.design_power_mw == b.design_power_mw &&
         a.max_link_load_mbps == b.max_link_load_mbps;
}

/// Bit-identical comparison of the batched report against the naive loop:
/// identical mappings, identical evaluations, identical per-point winners.
bool identical(const select::ExplorationReport& batched,
               const std::vector<select::SelectionReport>& naive) {
  if (batched.results.size() != naive.size()) return false;
  for (std::size_t p = 0; p < naive.size(); ++p) {
    const auto& b = batched.results[p].selection;
    const auto& n = naive[p];
    if (b.best_index != n.best_index) return false;
    if (b.candidates.size() != n.candidates.size()) return false;
    for (std::size_t t = 0; t < n.candidates.size(); ++t) {
      if (b.candidates[t].result.core_to_slot !=
          n.candidates[t].result.core_to_slot) {
        return false;
      }
      if (!same_eval(b.candidates[t].result.eval,
                     n.candidates[t].result.eval)) {
        return false;
      }
    }
  }
  return true;
}

struct ProbeResult {
  std::size_t points = 0;
  double naive_ms = 0.0;
  double batched_ms = 0.0;
  std::uint64_t contexts_built = 0;
  bool bit_identical = false;

  [[nodiscard]] double speedup() const {
    return batched_ms > 0.0 ? naive_ms / batched_ms : 0.0;
  }
};

ProbeResult run_one(const mapping::CoreGraph& app,
                    const std::vector<std::unique_ptr<topo::Topology>>& library,
                    bool bandwidth_axis) {
  const auto request = sweep_request(app, library, bandwidth_axis);
  const auto points = select::DesignSpaceExplorer::expand(request);

  ProbeResult probe;
  probe.points = points.size();

  const auto t0 = std::chrono::steady_clock::now();
  const auto naive = run_naive(app, library, points);
  const auto t1 = std::chrono::steady_clock::now();

  const auto contexts_before = mapping::EvalContext::contexts_built();
  select::DesignSpaceExplorer explorer;
  const auto t2 = std::chrono::steady_clock::now();
  const auto batched = explorer.explore(request);
  const auto t3 = std::chrono::steady_clock::now();
  probe.contexts_built =
      mapping::EvalContext::contexts_built() - contexts_before;

  probe.naive_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  probe.batched_ms =
      std::chrono::duration<double, std::milli>(t3 - t2).count();
  probe.bit_identical = identical(batched, naive);
  return probe;
}

int run_probe(bench::Probe& probe) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());

  bench::print_heading(
      "Batched exploration probe: DesignSpaceExplorer vs per-config "
      "TopologySelector loop (VOPD, full library, single-threaded)");

  const auto sweep = run_one(app, library, /*bandwidth_axis=*/false);
  const auto grid = run_one(app, library, /*bandwidth_axis=*/true);

  util::Table table({"workload", "points", "naive ms", "batched ms",
                     "speedup", "contexts built", "bit-identical"});
  const auto row = [&](const char* name, const ProbeResult& result) {
    table.add_row({name, std::to_string(result.points),
                   util::Table::num(result.naive_ms, 1),
                   util::Table::num(result.batched_ms, 1),
                   util::Table::num(result.speedup(), 2) + "x",
                   std::to_string(result.contexts_built) + "/" +
                       std::to_string(library.size()),
                   result.bit_identical ? "yes" : "NO"});
  };
  row("3 obj x 4 routing", sweep);
  row("3 obj x 4 routing x 2 BW", grid);
  std::printf("%s", table.to_string().c_str());

  const auto stats = mapping::EvalContext::cache_stats();
  std::printf(
      "context caches since process start: floorplan %llu/%llu hits, "
      "metrics %llu/%llu hits\n",
      static_cast<unsigned long long>(stats.floorplan_hits),
      static_cast<unsigned long long>(stats.floorplan_hits +
                                      stats.floorplan_misses),
      static_cast<unsigned long long>(stats.metrics_hits),
      static_cast<unsigned long long>(stats.metrics_hits +
                                      stats.metrics_misses));

  probe.wall_ms(grid.batched_ms);
  probe.invariant("bit_identical", sweep.bit_identical && grid.bit_identical);
  probe.metric("contexts_built_per_run", grid.contexts_built);
  probe.metric("topologies", library.size());
  probe.metric("explorer_threads", 1);
  int status = 0;
  for (const auto& [name, result] :
       {std::pair{"sweep_3obj_4routing", &sweep},
        std::pair{"grid_3obj_4routing_2bw", &grid}}) {
    probe.row("workloads", {{"run", name},
                            {"design_points", result->points},
                            {"naive_ms", result->naive_ms},
                            {"batched_ms", result->batched_ms},
                            {"speedup", result->speedup()}});
    if (result->contexts_built != library.size()) {
      std::fprintf(
          stderr, "FAIL: expected one context per topology (%zu), built %llu\n",
          library.size(),
          static_cast<unsigned long long>(result->contexts_built));
      status = 1;
    }
  }
  return probe.finish() | status;
}

void BM_ExplorerSweep(benchmark::State& state) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request =
      sweep_request(app, library, /*bandwidth_axis=*/false);
  select::DesignSpaceExplorer explorer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.explore(request));
  }
  state.SetLabel("12-point sweep, shared contexts");
}
BENCHMARK(BM_ExplorerSweep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sunmap::bench::Probe probe("exploration", argc, argv);
  const int status = run_probe(probe);
  if (status != 0) return status;
  return sunmap::bench::run_benchmarks(argc, argv);
}
