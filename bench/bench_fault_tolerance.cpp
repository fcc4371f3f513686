// Experiment FAULT-RT — the robustness probe behind the fault-aware
// evaluation engine. Two CI-gated invariants ride in its JSON:
//
//  * fault_free_bit_identical — an empty fault set must leave the mapping
//    search bit-identical to the committed mapping probe: same cost, same
//    evaluated/pruned counts on the 64-core synthetic mesh. Fault awareness
//    costs nothing when it is off.
//  * fault_incremental_2x — with exhaustive N-1 link faults folded into the
//    worst-case-degraded objective, the per-scenario re-evaluation that
//    reads each degraded route from the path table built at bind time must
//    be >= 2x faster than Mapper::evaluate, the from-scratch oracle, which
//    re-runs a masked search per (scenario, commodity), on an SA-shaped
//    neighbor-swap walk over VOPD and MPEG-4. Each side's ratio term is
//    net of its own fault-free walk (the same walk with an empty fault
//    set: EvalContext::evaluate for the table, Mapper::evaluate for the
//    oracle), so the base routing, floorplan and power work drops out; the
//    end-to-end walk speedup is recorded informationally. The oracle also
//    computes every scenario's link loads, which a metrics-only context
//    evaluation skips, so the ratio credits the table with that work too.
//    The table side's net time is only about a millisecond, so the ratio
//    is noisy run to run; the 2x bar sits far below it. Both walks must
//    return bit-identical costs — the table holds the routes the oracle
//    searches for and sums them in its order, so any divergence is a bug
//    and the binary exits nonzero.
//
// The fault-free search's cost and evaluated/pruned counts are invariants
// too. A scenario-count scaling table (1..16 random scenarios) is also
// recorded for the delta summary. `--json` writes
// BENCH_fault_tolerance.json (bench/probe.h); the binary exits nonzero when
// an invariant fails or a walk diverges from its reference.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "bench/probe.h"
#include "fault/fault.h"
#include "mapping/eval_context.h"
#include "topo/library.h"
#include "util/prng.h"
#include "util/table.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace {

using namespace sunmap;

// The committed contract of the mapping probe (bench_mapping_scaling's
// 64-core greedy search): an empty fault set must reproduce it exactly.
constexpr double kFaultFreeCost = 4.9445597092556772;
constexpr int kFaultFreeEvaluated = 4033;
constexpr int kFaultFreePruned = 3981;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct FaultFreeProbe {
  double wall_ms = 0.0;
  double cost = 0.0;
  int evaluated = 0;
  int pruned = 0;
  bool bit_identical = false;
};

FaultFreeProbe run_fault_free_probe() {
  apps::SyntheticSpec spec;
  spec.num_cores = 64;
  spec.edge_density = 0.12;
  spec.max_bandwidth_mbps = 400.0;
  spec.seed = 42;
  const auto app = apps::synthetic(spec);
  const auto mesh = topo::make_mesh_for(64);
  auto config = bench::video_config();
  config.link_bandwidth_mbps = 4000.0;
  // The whole fault stack is configured but empty: this is the "off" path
  // every fault-unaware search takes.
  config.faults = fault::FaultSet{};
  mapping::Mapper mapper(config);

  FaultFreeProbe probe;
  const double t0 = now_ms();
  const auto result = mapper.map(app, *mesh);
  probe.wall_ms = now_ms() - t0;
  probe.cost = result.eval.cost;
  probe.evaluated = result.evaluated_mappings;
  probe.pruned = result.pruned_mappings;
  probe.bit_identical = probe.cost == kFaultFreeCost &&
                        probe.evaluated == kFaultFreeEvaluated &&
                        probe.pruned == kFaultFreePruned &&
                        result.eval.fault_outcomes.empty();

  bench::print_heading(
      "Fault-free bit-identity: empty fault set vs the committed mapping "
      "probe (64-core synthetic mesh, greedy swaps)");
  util::Table table({"wall ms", "cost", "evaluated", "pruned", "identical"});
  table.add_row({util::Table::num(probe.wall_ms, 1),
                 util::Table::num(probe.cost, 10),
                 std::to_string(probe.evaluated), std::to_string(probe.pruned),
                 probe.bit_identical ? "yes" : "NO"});
  std::printf("%s", table.to_string().c_str());
  return probe;
}

struct WalkResult {
  double wall_ms = 0.0;
  std::vector<double> costs;
};

/// Which evaluator a walk drives: one EvalContext (its degraded-path table)
/// or Mapper::evaluate, the from-scratch oracle.
enum class Evaluator { kContext, kOracle };

/// SA-shaped probe: a deterministic random walk of neighbor swaps, each
/// candidate evaluated through one EvalContext with materialize=false — the
/// exact shape of the annealing inner loop, isolated from acceptance logic
/// so the measurement is pure re-evaluation cost — or through
/// Mapper::evaluate.
WalkResult evaluation_walk(const mapping::CoreGraph& app,
                           const topo::Topology& topology,
                           const mapping::MapperConfig& config, int iters,
                           Evaluator evaluator) {
  const mapping::Mapper mapper(config);
  const auto ctx = mapper.make_context(app, topology);
  mapping::EvalScratch scratch;
  std::vector<int> mapping;
  for (int core = 0; core < app.num_cores(); ++core) mapping.push_back(core);

  util::Prng prng(7);
  WalkResult result;
  result.costs.reserve(static_cast<std::size_t>(iters));
  const double t0 = now_ms();
  for (int i = 0; i < iters; ++i) {
    const auto a = static_cast<std::size_t>(
        prng.next_below(static_cast<std::uint64_t>(app.num_cores())));
    const auto b = static_cast<std::size_t>(
        prng.next_below(static_cast<std::uint64_t>(app.num_cores())));
    std::swap(mapping[a], mapping[b]);
    result.costs.push_back(
        evaluator == Evaluator::kContext
            ? ctx.evaluate(mapping, scratch, /*materialize=*/false).cost
            : mapper.evaluate(app, topology, mapping).cost);
  }
  result.wall_ms = now_ms() - t0;
  return result;
}

/// Min-of-three walks: the walk is deterministic, so the cost sequence is
/// identical across repetitions and the minimum wall time is the least
/// noise-contaminated measurement — keeping the CI-gated speedup ratio
/// stable on loaded runners.
WalkResult best_of_walks(const mapping::CoreGraph& app,
                         const topo::Topology& topology,
                         const mapping::MapperConfig& config, int iters,
                         Evaluator evaluator) {
  WalkResult best = evaluation_walk(app, topology, config, iters, evaluator);
  for (int rep = 1; rep < 3; ++rep) {
    auto next = evaluation_walk(app, topology, config, iters, evaluator);
    if (next.wall_ms < best.wall_ms) best.wall_ms = next.wall_ms;
  }
  return best;
}

/// A fault-free and a faulted walk through one evaluator.
struct WalkPair {
  double base_ms = 0.0;
  WalkResult faulted;
  [[nodiscard]] double net_ms() const {
    return std::max(faulted.wall_ms - base_ms, 1e-6);
  }
};

WalkPair walk_pair(const mapping::CoreGraph& app,
                   const topo::Topology& topology,
                   const mapping::MapperConfig& faulted, int iters,
                   Evaluator evaluator) {
  auto fault_free = faulted;
  fault_free.faults = fault::FaultSet{};
  WalkPair pair;
  pair.base_ms =
      best_of_walks(app, topology, fault_free, iters, evaluator).wall_ms;
  pair.faulted = best_of_walks(app, topology, faulted, iters, evaluator);
  return pair;
}

struct IncrementalRun {
  std::string name;
  double base_ms = 0.0;         ///< Fault-free context walk.
  double incremental_ms = 0.0;
  double reference_ms = 0.0;    ///< Mapper::evaluate walk.
  double walk_speedup = 0.0;    ///< End-to-end, informational.
  double fault_speedup = 0.0;   ///< Net of fault-free walks: gated.
  bool bit_identical = false;
  std::size_t scenarios = 0;
};

IncrementalRun run_incremental_probe(const std::string& name,
                                     const mapping::CoreGraph& app,
                                     int iters) {
  const auto mesh = topo::make_mesh_for(app.num_cores());
  auto config = bench::video_config();
  config.faults.spec.kind = fault::FaultSpec::Kind::kEveryLink;
  config.faults.aggregation = fault::Aggregation::kWorstCase;
  // Each side's fault-free walk isolates its base evaluation (routing,
  // area/power, bounds); subtracting it leaves the cost of the
  // per-scenario degraded re-evaluation itself.
  const auto incremental =
      walk_pair(app, *mesh, config, iters, Evaluator::kContext);
  const auto reference =
      walk_pair(app, *mesh, config, iters, Evaluator::kOracle);

  IncrementalRun run;
  run.name = name;
  run.base_ms = incremental.base_ms;
  run.incremental_ms = incremental.faulted.wall_ms;
  run.reference_ms = reference.faulted.wall_ms;
  run.walk_speedup = run.reference_ms / run.incremental_ms;
  run.fault_speedup = reference.net_ms() / incremental.net_ms();
  run.bit_identical = incremental.faulted.costs == reference.faulted.costs;
  run.scenarios = fault::physical_links(*mesh).size();
  return run;
}

struct ScalingPoint {
  int scenarios = 0;
  double incremental_ms = 0.0;
  double reference_ms = 0.0;
  double speedup = 0.0;  ///< Net of each side's fault-free walk.
  bool bit_identical = false;
};

ScalingPoint run_scaling_point(const mapping::CoreGraph& app, int scenarios,
                               int iters) {
  const auto mesh = topo::make_mesh_for(app.num_cores());
  auto config = bench::video_config();
  config.faults.spec.kind = fault::FaultSpec::Kind::kRandom;
  config.faults.spec.num_scenarios = scenarios;
  config.faults.spec.faults_per_scenario = 1;
  config.faults.spec.seed = 5;

  const auto incremental =
      walk_pair(app, *mesh, config, iters, Evaluator::kContext);
  const auto reference =
      walk_pair(app, *mesh, config, iters, Evaluator::kOracle);
  ScalingPoint point;
  point.scenarios = scenarios;
  point.incremental_ms = incremental.faulted.wall_ms;
  point.reference_ms = reference.faulted.wall_ms;
  point.speedup = reference.net_ms() / incremental.net_ms();
  point.bit_identical = incremental.faulted.costs == reference.faulted.costs;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Probe probe("fault_tolerance", argc, argv);
  const auto fault_free = run_fault_free_probe();

  constexpr int kWalkIters = 400;
  std::vector<IncrementalRun> runs;
  runs.push_back(run_incremental_probe("vopd_n1_sa", apps::vopd(),
                                       kWalkIters));
  runs.push_back(run_incremental_probe("mpeg4_n1_sa", apps::mpeg4(),
                                       kWalkIters));

  bench::print_heading(
      "Incremental fault re-evaluation: the degraded-path table vs "
      "Mapper::evaluate's masked searches (N-1 link faults, worst-case "
      "objective, SA-shaped walk; fault speedup net of fault-free walks)");
  util::Table table({"run", "scenarios", "base ms", "incremental ms",
                     "reference ms", "walk speedup", "fault speedup",
                     "bit-identical"});
  bool all_identical = fault_free.bit_identical;
  bool incremental_2x = true;
  double min_speedup = 0.0;
  for (const auto& run : runs) {
    table.add_row({run.name, std::to_string(run.scenarios),
                   util::Table::num(run.base_ms, 1),
                   util::Table::num(run.incremental_ms, 1),
                   util::Table::num(run.reference_ms, 1),
                   util::Table::num(run.walk_speedup, 2),
                   util::Table::num(run.fault_speedup, 2),
                   run.bit_identical ? "yes" : "NO"});
    all_identical = all_identical && run.bit_identical;
    incremental_2x = incremental_2x && run.fault_speedup >= 2.0;
    min_speedup = min_speedup == 0.0
                      ? run.fault_speedup
                      : std::min(min_speedup, run.fault_speedup);
  }
  std::printf("%s", table.to_string().c_str());

  std::vector<ScalingPoint> scaling;
  const auto vopd = apps::vopd();
  for (const int scenarios : {1, 4, 8, 16}) {
    scaling.push_back(run_scaling_point(vopd, scenarios, 200));
  }
  bench::print_heading(
      "Per-scenario-count scaling (VOPD, random single-link scenarios; "
      "speedup net of fault-free walks)");
  util::Table scale_table(
      {"scenarios", "incremental ms", "reference ms", "speedup"});
  for (const auto& point : scaling) {
    all_identical = all_identical && point.bit_identical;
    scale_table.add_row({std::to_string(point.scenarios),
                         util::Table::num(point.incremental_ms, 1),
                         util::Table::num(point.reference_ms, 1),
                         util::Table::num(point.speedup, 2)});
  }
  std::printf("%s", scale_table.to_string().c_str());

  probe.invariant("cost", fault_free.cost);
  probe.invariant("evaluated_mappings", fault_free.evaluated);
  probe.invariant("pruned_mappings", fault_free.pruned);
  probe.invariant("fault_free_bit_identical", fault_free.bit_identical);
  probe.invariant("fault_incremental_2x", incremental_2x);
  probe.metric("fault_incremental_speedup", min_speedup);
  for (const auto& run : runs) {
    probe.row("runs", {{"run", run.name},
                       {"scenarios", run.scenarios},
                       {"base_ms", run.base_ms},
                       {"wall_ms", run.incremental_ms},
                       {"reference_ms", run.reference_ms},
                       {"walk_speedup", run.walk_speedup},
                       {"fault_speedup", run.fault_speedup},
                       {"bit_identical", run.bit_identical}});
    probe.sub_benchmark(run.name, run.incremental_ms);
  }
  for (const auto& point : scaling) {
    probe.row("scenario_scaling", {{"scenarios", point.scenarios},
                                   {"incremental_ms", point.incremental_ms},
                                   {"reference_ms", point.reference_ms},
                                   {"speedup", point.speedup}});
  }
  const int status = probe.finish();
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: fault evaluation diverged from its reference\n");
    return 1;
  }
  return status;
}
