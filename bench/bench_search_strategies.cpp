// Experiment SEARCH — the cross-PR perf probe for the pluggable mapping
// search subsystem. Two sections, over VOPD / MPEG4 / netproc16 on their
// meshes:
//
//  * strategies — greedy swaps vs single-seed simulated annealing vs the
//    multi-restart annealer at the SAME total iteration budget. The restart
//    annealer must never return a worse cost than the single-seed chain on
//    the VOPD mesh (the acceptance bar for best-of-restarts).
//
//  * pruning — min-area and min-power greedy-swap searches with the
//    objective-generic lower-bound pruning on vs off. The pruned search
//    must return the bit-identical mapping and cost (the bounds are
//    admissible) while pruning the majority of candidates.
//
// `--json` writes BENCH_search_strategies.json (bench/probe.h). Its
// invariants: restart_never_worse, bit_identical (pruned search equals the
// prune-disabled reference) and annealing_incremental (transactional SA
// bit-identical to the from-scratch floorplan reference, >= 2x rigid and
// >= 1.25x with sizing). The binary exits nonzero when any of them fails or
// when aggregate bound pruning drops to 50% or below.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "bench/probe.h"
#include "topo/library.h"
#include "util/table.h"

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace sunmap;

struct Workload {
  const char* name;
  mapping::CoreGraph app;
  std::unique_ptr<topo::Topology> mesh;
  /// Link capacity making the mesh mapping bandwidth-feasible (the paper's
  /// 500 MB/s for VOPD; MPEG4 and netproc peak at ~900 MB/s links). The
  /// bound pruning requires a feasible incumbent, as production-sized
  /// searches have, so an infeasible workload would measure nothing.
  double link_bandwidth_mbps;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"vopd", apps::vopd(), nullptr, 500.0});
  out.push_back({"mpeg4", apps::mpeg4(), nullptr, 1000.0});
  out.push_back({"netproc16", apps::netproc16(), nullptr, 1000.0});
  for (auto& w : out) w.mesh = topo::make_mesh_for(w.app.num_cores());
  return out;
}

double timed_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

constexpr int kAnnealIterations = 2000;
constexpr int kRestarts = 4;

struct StrategyRow {
  std::string key;
  double wall_ms = 0.0;
  double cost = 0.0;
  bool feasible = false;
  int evaluated = 0;
};

struct PruneRow {
  std::string key;
  double pruned_ms = 0.0;
  double unpruned_ms = 0.0;
  int evaluated = 0;
  int pruned = 0;
  bool bit_identical = false;

  [[nodiscard]] double fraction() const {
    return evaluated > 0 ? static_cast<double>(pruned) / evaluated : 0.0;
  }
};

mapping::MapperConfig strategy_config(mapping::SearchKind kind,
                                      const Workload& w) {
  auto config = sunmap::bench::video_config();
  config.link_bandwidth_mbps = w.link_bandwidth_mbps;
  config.search = kind;
  config.annealing_iterations = kAnnealIterations;
  config.annealing_restarts = kRestarts;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Probe probe("search_strategies", argc, argv);
  auto loads = workloads();

  // ---- Strategy comparison at equal total iteration budget. ----
  bench::print_heading(
      "Search strategies: greedy swaps vs single-seed SA vs restart SA "
      "(equal total iterations)");
  std::vector<StrategyRow> strategy_rows;
  util::Table strategies({"app", "strategy", "wall ms", "cost", "feasible",
                          "evaluated"});
  bool restart_never_worse = true;
  for (const auto& w : loads) {
    double single_cost = 0.0;
    double restart_cost = 0.0;
    for (const auto kind : {mapping::SearchKind::kGreedySwaps,
                            mapping::SearchKind::kAnnealing,
                            mapping::SearchKind::kRestartAnnealing}) {
      const mapping::Mapper mapper(strategy_config(kind, w));
      mapping::MappingResult result;
      const double ms =
          timed_ms([&] { result = mapper.map(w.app, *w.mesh); });
      StrategyRow row;
      row.key = std::string(w.name) + "_" + mapping::to_string(kind);
      row.wall_ms = ms;
      row.cost = result.eval.cost;
      row.feasible = result.eval.feasible();
      row.evaluated = result.evaluated_mappings;
      strategies.add_row({w.name, mapping::to_string(kind),
                          util::Table::num(ms, 1),
                          util::Table::num(row.cost, 4),
                          row.feasible ? "yes" : "no",
                          std::to_string(row.evaluated)});
      if (kind == mapping::SearchKind::kAnnealing) single_cost = row.cost;
      if (kind == mapping::SearchKind::kRestartAnnealing) {
        restart_cost = row.cost;
      }
      strategy_rows.push_back(std::move(row));
    }
    if (restart_cost > single_cost) {
      restart_never_worse = false;
      std::fprintf(stderr,
                   "FAIL: restart annealer worse than single seed on %s "
                   "(%.17g > %.17g)\n",
                   w.name, restart_cost, single_cost);
    }
  }
  std::printf("%s", strategies.to_string().c_str());

  // ---- Bound-pruning effectiveness + admissibility. ----
  bench::print_heading(
      "Objective-generic bound pruning: min-area / min-power greedy swaps, "
      "pruned vs prune-disabled reference");
  std::vector<PruneRow> prune_rows;
  util::Table pruning({"app", "objective", "pruned ms", "unpruned ms",
                       "evaluated", "pruned", "fraction", "bit-identical"});
  bool all_identical = true;
  double min_fraction = 1.0;
  for (const auto& w : loads) {
    for (const auto objective :
         {mapping::Objective::kMinArea, mapping::Objective::kMinPower}) {
      auto config = sunmap::bench::video_config();
      config.link_bandwidth_mbps = w.link_bandwidth_mbps;
      config.objective = objective;
      const mapping::Mapper fast(config);
      auto reference_config = config;
      reference_config.bound_pruning = false;
      const mapping::Mapper reference(reference_config);

      mapping::MappingResult pruned_result, reference_result;
      PruneRow row;
      row.key = std::string(w.name) + "_" + mapping::to_string(objective);
      row.pruned_ms =
          timed_ms([&] { pruned_result = fast.map(w.app, *w.mesh); });
      row.unpruned_ms = timed_ms(
          [&] { reference_result = reference.map(w.app, *w.mesh); });
      row.evaluated = pruned_result.evaluated_mappings;
      row.pruned = pruned_result.pruned_mappings;
      row.bit_identical =
          pruned_result.core_to_slot == reference_result.core_to_slot &&
          pruned_result.eval.cost == reference_result.eval.cost &&
          pruned_result.eval.design_area_mm2 ==
              reference_result.eval.design_area_mm2 &&
          pruned_result.eval.design_power_mw ==
              reference_result.eval.design_power_mw;
      all_identical = all_identical && row.bit_identical;
      min_fraction = std::min(min_fraction, row.fraction());
      pruning.add_row({w.name, mapping::to_string(objective),
                       util::Table::num(row.pruned_ms, 1),
                       util::Table::num(row.unpruned_ms, 1),
                       std::to_string(row.evaluated),
                       std::to_string(row.pruned),
                       util::Table::num(row.fraction(), 3),
                       row.bit_identical ? "yes" : "NO"});
      prune_rows.push_back(std::move(row));
    }
  }
  std::printf("%s", pruning.to_string().c_str());

  // ---- Transactional incremental floorplanning across SA accept/reject. --
  //
  // Simulated annealing is the pathological client of incremental
  // floorplanning: roughly half its candidates are rejected, so before the
  // DeltaTxn protocol every rejected swap left the scratch session dirty.
  // This section runs the SA workloads with the transactional incremental
  // path (the default) against the from-scratch reference
  // (MapperConfig::incremental_floorplan = false) and enforces both
  // bit-identity and the wall-clock win.
  //
  // Setup notes: netproc16 is excluded — its cores share one shape class on
  // a fully occupied mesh, so every mapping has the same floorplan key and
  // the floorplan path is never exercised. Routing is dimension-ordered
  // (static route tables): under the load-adaptive functions the per-eval
  // Dijkstras dominate wall time equally on both sides and would only
  // drown the floorplan signal being gated. Each workload runs with the
  // default sizing descent (reported, gated >= 1.25x in aggregate — the
  // descent itself runs identically on both sides) and with the rigid
  // engine (sizing_passes = 0, gated >= 2x in aggregate, where the
  // delta-vs-rebuild win is isolated).
  bench::print_heading(
      "Transactional SA: incremental floorplan deltas across accept/reject "
      "vs from-scratch reference (bit-identical by contract)");
  struct SaRow {
    std::string key;
    double incremental_ms = 0.0;
    double reference_ms = 0.0;
    bool bit_identical = false;

    [[nodiscard]] double speedup() const {
      return incremental_ms > 0.0 ? reference_ms / incremental_ms : 0.0;
    }
  };
  apps::SyntheticSpec synth_spec;
  synth_spec.num_cores = 48;
  synth_spec.edge_density = 0.05;
  synth_spec.seed = 42;
  const auto synth_app = apps::synthetic(synth_spec);
  const auto synth_mesh = topo::make_mesh_for(64);
  struct SaWorkload {
    std::string name;
    const mapping::CoreGraph* app;
    const topo::Topology* mesh;
    double link_bandwidth_mbps;
    int iterations;
  };
  std::vector<SaWorkload> sa_workloads;
  sa_workloads.push_back(
      {"vopd", &loads[0].app, loads[0].mesh.get(), 500.0, kAnnealIterations});
  sa_workloads.push_back(
      {"mpeg4", &loads[1].app, loads[1].mesh.get(), 1000.0,
       kAnnealIterations});
  sa_workloads.push_back(
      {"synth48", &synth_app, synth_mesh.get(), 4000.0, 1000});

  std::vector<SaRow> sa_rows;
  util::Table sa_table({"workload", "sizing", "incremental ms",
                        "from-scratch ms", "speedup", "bit-identical"});
  bool sa_identical = true;
  double sized_inc_total = 0.0, sized_ref_total = 0.0;
  double rigid_inc_total = 0.0, rigid_ref_total = 0.0;
  for (const auto& w : sa_workloads) {
    for (const bool rigid : {false, true}) {
      mapping::MapperConfig config;
      config.routing = route::RoutingKind::kDimensionOrdered;
      config.link_bandwidth_mbps = w.link_bandwidth_mbps;
      config.search = mapping::SearchKind::kAnnealing;
      config.annealing_iterations = w.iterations;
      if (rigid) config.floorplan.sizing_passes = 0;

      mapping::MappingResult incremental_result, reference_result;
      double incremental_ms = std::numeric_limits<double>::infinity();
      double reference_ms = std::numeric_limits<double>::infinity();
      for (int round = 0; round < 3; ++round) {
        const mapping::Mapper mapper(config);
        incremental_ms = std::min(incremental_ms, timed_ms([&] {
          incremental_result = mapper.map(*w.app, *w.mesh);
        }));
        auto reference_config = config;
        reference_config.incremental_floorplan = false;
        const mapping::Mapper reference(reference_config);
        reference_ms = std::min(reference_ms, timed_ms([&] {
          reference_result = reference.map(*w.app, *w.mesh);
        }));
      }
      SaRow row;
      row.key = w.name + (rigid ? "_sa_rigid" : "_sa");
      row.incremental_ms = incremental_ms;
      row.reference_ms = reference_ms;
      row.bit_identical =
          incremental_result.core_to_slot == reference_result.core_to_slot &&
          incremental_result.eval.cost == reference_result.eval.cost &&
          incremental_result.evaluated_mappings ==
              reference_result.evaluated_mappings;
      sa_identical = sa_identical && row.bit_identical;
      (rigid ? rigid_inc_total : sized_inc_total) += incremental_ms;
      (rigid ? rigid_ref_total : sized_ref_total) += reference_ms;
      sa_table.add_row({w.name, rigid ? "rigid" : "default",
                        util::Table::num(incremental_ms, 1),
                        util::Table::num(reference_ms, 1),
                        util::Table::num(row.speedup(), 2) + "x",
                        row.bit_identical ? "yes" : "NO"});
      sa_rows.push_back(std::move(row));
    }
  }
  const double sa_speedup_rigid =
      rigid_inc_total > 0.0 ? rigid_ref_total / rigid_inc_total : 0.0;
  const double sa_speedup_sized =
      sized_inc_total > 0.0 ? sized_ref_total / sized_inc_total : 0.0;
  std::printf("%saggregate SA speedup: %.2fx rigid, %.2fx with sizing\n",
              sa_table.to_string().c_str(), sa_speedup_rigid,
              sa_speedup_sized);
  const bool annealing_incremental =
      sa_identical && sa_speedup_rigid >= 2.0 && sa_speedup_sized >= 1.25;

  // Per-objective aggregate pruning rates over the three workloads — the
  // acceptance bar: min-area and min-power searches must each bound-prune
  // the majority of their candidates. (Individual runs are reported above;
  // the loosest is min-power on the fully-occupied netproc16 mesh, where
  // the bound is ~94% tight but most candidates are within a few percent
  // of the incumbent.)
  double area_fraction = 0.0;
  double power_fraction = 0.0;
  {
    long area_eval = 0, area_pruned = 0, power_eval = 0, power_pruned = 0;
    for (const auto& row : prune_rows) {
      const bool is_area = row.key.find("min-area") != std::string::npos;
      (is_area ? area_eval : power_eval) += row.evaluated;
      (is_area ? area_pruned : power_pruned) += row.pruned;
    }
    area_fraction =
        area_eval > 0 ? static_cast<double>(area_pruned) / area_eval : 0.0;
    power_fraction =
        power_eval > 0 ? static_cast<double>(power_pruned) / power_eval : 0.0;
    std::printf("aggregate prune fraction: min-area %.3f, min-power %.3f\n",
                area_fraction, power_fraction);
  }

  int status = 0;
  if (area_fraction <= 0.5 || power_fraction <= 0.5) {
    std::fprintf(stderr,
                 "FAIL: aggregate bound pruning below the 50%% bar "
                 "(min-area %.1f%%, min-power %.1f%%)\n",
                 100.0 * area_fraction, 100.0 * power_fraction);
    status = 1;
  }

  probe.invariant("restart_never_worse", restart_never_worse);
  probe.invariant("bit_identical", all_identical);
  probe.invariant("annealing_incremental", annealing_incremental);
  probe.metric("anneal_iterations", kAnnealIterations);
  probe.metric("restarts", kRestarts);
  probe.metric("annealing_speedup_rigid", sa_speedup_rigid);
  probe.metric("annealing_speedup_sized", sa_speedup_sized);
  probe.metric("min_prune_fraction", min_fraction);
  probe.metric("min_area_prune_fraction", area_fraction);
  probe.metric("min_power_prune_fraction", power_fraction);
  for (const auto& row : sa_rows) {
    probe.row("annealing", {{"run", row.key},
                            {"wall_ms", row.incremental_ms},
                            {"from_scratch_ms", row.reference_ms},
                            {"speedup", row.speedup()},
                            {"bit_identical", row.bit_identical}});
  }
  for (const auto& row : strategy_rows) {
    probe.row("strategies", {{"run", row.key},
                             {"wall_ms", row.wall_ms},
                             {"cost", row.cost},
                             {"feasible", row.feasible},
                             {"evaluated", row.evaluated}});
    probe.sub_benchmark(row.key, row.wall_ms);
  }
  for (const auto& row : sa_rows) {
    probe.sub_benchmark(row.key, row.incremental_ms);
  }
  for (const auto& row : prune_rows) {
    probe.row("pruning", {{"run", row.key},
                          {"wall_ms", row.pruned_ms},
                          {"unpruned_wall_ms", row.unpruned_ms},
                          {"evaluated", row.evaluated},
                          {"pruned", row.pruned},
                          {"prune_fraction", row.fraction()},
                          {"bit_identical", row.bit_identical}});
    probe.sub_benchmark(row.key + "_pruned", row.pruned_ms);
  }
  status |= probe.finish();
  if (status != 0) return status;
  return sunmap::bench::run_benchmarks(argc, argv);
}
