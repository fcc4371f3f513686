// Experiment ABL-FP — floorplanner ablations (README "The floorplanning
// pipeline"):
//  * the simplex LP engine vs the longest-path constraint-graph engine
//    (identical chip extents, very different runtime — why the swap loop
//    uses the longest-path engine);
//  * soft-block aspect-ratio sizing on vs off.
//
// Plus the cross-PR floorplan perf probe: a randomized pairwise-swap
// sequence driven once through stateless from-scratch Floorplanner::place
// calls and once through one fplan::FloorplanSession fed two-slot deltas.
// The two must agree bit-for-bit on every step (chip W/H, area, every
// block), and the session must be at least 2x faster. An annealing-shaped
// probe then drives accept/reject candidates through the session the way
// the evaluation context does: each candidate sends its diff against what
// the session holds, so a rejected candidate is undone by the next one's
// delta. `--json` writes BENCH_floorplan.json (bench/probe.h) with three
// invariants — bit_identical, incremental_2x and annealing_incremental
// (bit-identical, >= 2x rigid and >= 1.4x with sizing) — and the binary
// exits nonzero when any of them fails.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "bench/probe.h"
#include "fplan/floorplanner.h"
#include "fplan/session.h"
#include "topo/library.h"
#include "util/prng.h"
#include "util/table.h"

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

namespace {

using namespace sunmap;

struct Inputs {
  std::vector<std::optional<fplan::BlockShape>> cores;
  std::vector<fplan::BlockShape> switches;
};

Inputs app_inputs(const mapping::CoreGraph& app,
                  const topo::Topology& topology) {
  Inputs inputs;
  inputs.cores.resize(static_cast<std::size_t>(topology.num_slots()));
  for (int c = 0; c < app.num_cores() && c < topology.num_slots(); ++c) {
    inputs.cores[static_cast<std::size_t>(c)] = app.core(c).shape;
  }
  inputs.switches.assign(static_cast<std::size_t>(topology.num_switches()),
                         fplan::BlockShape::soft_block(0.25));
  return inputs;
}

Inputs vopd_inputs(const topo::Topology& topology) {
  return app_inputs(apps::vopd(), topology);
}

void print_engine_comparison() {
  bench::print_heading(
      "Floorplan engines: simplex LP vs constraint-graph longest path "
      "(identical extents by construction)");
  util::Table table({"topology", "LP W+H (mm)", "longest-path W+H (mm)",
                     "LP area (mm2)"});
  const auto library = topo::standard_library(12);
  for (const auto& topology : library) {
    const auto inputs = vopd_inputs(*topology);
    fplan::Floorplanner::Options lp_options;
    lp_options.engine = fplan::Floorplanner::Engine::kSimplexLp;
    const auto lp = fplan::Floorplanner(lp_options).place(
        topology->relative_placement(), inputs.cores, inputs.switches);
    const auto band = fplan::Floorplanner().place(
        topology->relative_placement(), inputs.cores, inputs.switches);
    table.add_row({topology->name(),
                   util::Table::num(lp.width_mm() + lp.height_mm()),
                   util::Table::num(band.width_mm() + band.height_mm()),
                   util::Table::num(lp.area_mm2())});
  }
  std::printf("%s", table.to_string().c_str());
}

void print_sizing_ablation() {
  bench::print_heading("Soft-block aspect-ratio sizing ablation");
  util::Table table({"topology", "area rigid (mm2)", "area sized (mm2)",
                     "saving"});
  const auto library = topo::standard_library(12);
  for (const auto& topology : library) {
    const auto inputs = vopd_inputs(*topology);
    fplan::Floorplanner::Options rigid_options;
    rigid_options.sizing_passes = 0;
    fplan::Floorplanner::Options sized_options;
    sized_options.sizing_passes = 2;
    const auto rigid = fplan::Floorplanner(rigid_options).place(
        topology->relative_placement(), inputs.cores, inputs.switches);
    const auto sized = fplan::Floorplanner(sized_options).place(
        topology->relative_placement(), inputs.cores, inputs.switches);
    table.add_row(
        {topology->name(), util::Table::num(rigid.area_mm2()),
         util::Table::num(sized.area_mm2()),
         util::Table::num(100.0 * (1.0 - sized.area_mm2() /
                                             rigid.area_mm2()),
                          1) +
             "%"});
  }
  std::printf("%s", table.to_string().c_str());
}

// ---- Swap-sequence probe: from-scratch place vs incremental session. ----

constexpr int kSwapSteps = 400;
constexpr int kTimingRounds = 3;

struct SwapWorkload {
  std::string name;
  mapping::CoreGraph app;
  std::unique_ptr<topo::Topology> topology;
};

struct LegRow {
  std::string key;
  double from_scratch_ms = 0.0;
  double incremental_ms = 0.0;
  bool bit_identical = false;

  [[nodiscard]] double speedup() const {
    return incremental_ms > 0.0 ? from_scratch_ms / incremental_ms : 0.0;
  }
};

bool floorplans_equal(const fplan::Floorplan& a, const fplan::Floorplan& b) {
  if (a.width_mm() != b.width_mm() || a.height_mm() != b.height_mm()) {
    return false;
  }
  if (a.blocks().size() != b.blocks().size()) return false;
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    const auto& x = a.blocks()[i];
    const auto& y = b.blocks()[i];
    if (x.kind != y.kind || x.index != y.index || x.x != y.x || x.y != y.y ||
        x.w != y.w || x.h != y.h) {
      return false;
    }
  }
  return true;
}

/// One (slot a, slot b) swap per step, identical across the correctness and
/// timing passes because the Prng is reseeded identically.
struct SwapSequence {
  explicit SwapSequence(int num_slots, std::uint64_t seed = 1234)
      : prng(seed), slots(num_slots) {}
  util::Prng prng;
  int slots;

  std::pair<int, int> next() {
    const int a = prng.next_int(0, slots - 1);
    int b = prng.next_int(0, slots - 2);
    if (b >= a) ++b;
    return {a, b};
  }
};

LegRow run_swap_probe(const SwapWorkload& workload) {
  const auto placement = workload.topology->relative_placement();
  const fplan::Floorplanner::Options options;
  const fplan::Floorplanner planner(options);
  const int num_slots = workload.topology->num_slots();

  LegRow row;
  row.key = workload.name;

  // Correctness pass (untimed): every step's incremental solve must equal
  // the from-scratch place bit-for-bit.
  {
    auto inputs = app_inputs(workload.app, *workload.topology);
    fplan::FloorplanSession session(options, placement, inputs.cores,
                                    inputs.switches);
    SwapSequence sequence(num_slots);
    row.bit_identical = floorplans_equal(
        session.solve(),
        planner.place(placement, inputs.cores, inputs.switches));
    std::vector<fplan::SlotShapeUpdate> updates(2);
    for (int step = 0; step < kSwapSteps && row.bit_identical; ++step) {
      const auto [a, b] = sequence.next();
      std::swap(inputs.cores[static_cast<std::size_t>(a)],
                inputs.cores[static_cast<std::size_t>(b)]);
      updates[0] = {a, inputs.cores[static_cast<std::size_t>(a)]};
      updates[1] = {b, inputs.cores[static_cast<std::size_t>(b)]};
      session.update_shapes(updates);
      row.bit_identical = floorplans_equal(
          session.solve(),
          planner.place(placement, inputs.cores, inputs.switches));
    }
  }

  // Timing passes: best of kTimingRounds identical rounds per path, so a
  // one-off scheduler stall on a noisy CI runner cannot fake a slowdown of
  // either side.
  row.from_scratch_ms = std::numeric_limits<double>::infinity();
  row.incremental_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kTimingRounds; ++round) {
    // From-scratch: a fresh Floorplanner::place per step.
    {
      auto inputs = app_inputs(workload.app, *workload.topology);
      SwapSequence sequence(num_slots);
      double blackhole = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int step = 0; step < kSwapSteps; ++step) {
        const auto [a, b] = sequence.next();
        std::swap(inputs.cores[static_cast<std::size_t>(a)],
                  inputs.cores[static_cast<std::size_t>(b)]);
        blackhole +=
            planner.place(placement, inputs.cores, inputs.switches).area_mm2();
      }
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(blackhole);
      row.from_scratch_ms = std::min(
          row.from_scratch_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }

    // Incremental: one session, two-slot deltas.
    {
      auto inputs = app_inputs(workload.app, *workload.topology);
      fplan::FloorplanSession session(options, placement, inputs.cores,
                                      inputs.switches);
      (void)session.solve();
      SwapSequence sequence(num_slots);
      std::vector<fplan::SlotShapeUpdate> updates(2);
      double blackhole = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int step = 0; step < kSwapSteps; ++step) {
        const auto [a, b] = sequence.next();
        std::swap(inputs.cores[static_cast<std::size_t>(a)],
                  inputs.cores[static_cast<std::size_t>(b)]);
        updates[0] = {a, inputs.cores[static_cast<std::size_t>(a)]};
        updates[1] = {b, inputs.cores[static_cast<std::size_t>(b)]};
        session.update_shapes(updates);
        blackhole += session.solve().area_mm2();
      }
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(blackhole);
      row.incremental_ms = std::min(
          row.incremental_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return row;
}

// ---- Annealing-shaped probe: accept/reject candidates through the session
// vs a from-scratch place per candidate. This is the session traffic a
// simulated-annealing chain generates — roughly half the candidates are
// rejected, and the session keeps the rejected one until the next
// candidate's delta moves it on, as EvalContext::floorplan_for_mapping
// drives it.

using Assignment = std::vector<std::optional<fplan::BlockShape>>;

/// The session side of the probe. Each candidate goes in as the delta a
/// floorplan-cache miss sends: every slot whose shape differs from what the
/// session holds. The session holds the previous candidate, so only that
/// candidate's swap and this one's can differ (at most 4 slots).
struct SessionFeed {
  SessionFeed(const fplan::Floorplanner::Options& options,
                const topo::RelativePlacement& placement, const Inputs& base)
      : session(options, placement, base.cores, base.switches),
        held(base.cores) {
    (void)session.solve();
  }

  const fplan::Floorplan& solve(const Assignment& candidate, int a, int b) {
    updates.clear();
    for (const int s : {last_a, last_b, a, b}) {
      const auto slot = static_cast<std::size_t>(s);
      if (held[slot] == candidate[slot]) continue;
      updates.push_back({s, candidate[slot]});
      held[slot] = candidate[slot];
    }
    last_a = a;
    last_b = b;
    session.update_shapes(updates);
    return session.solve();
  }

  fplan::FloorplanSession session;
  Assignment held;
  std::vector<fplan::SlotShapeUpdate> updates;
  int last_a = 0, last_b = 0;
};

LegRow run_txn_probe(const SwapWorkload& workload,
                     const fplan::Floorplanner::Options& options,
                     const std::string& key) {
  const auto placement = workload.topology->relative_placement();
  const fplan::Floorplanner planner(options);
  const int num_slots = workload.topology->num_slots();
  const auto base = app_inputs(workload.app, *workload.topology);

  LegRow row;
  row.key = key;

  // One candidate per step: the committed assignment with one pairwise
  // swap applied in place, kept or swapped back (rejected) by the same Prng
  // stream in every pass.
  const auto drive = [&](auto&& per_candidate) {
    auto assignment = base.cores;
    SwapSequence sequence(num_slots);
    util::Prng accept_prng(99);
    for (int step = 0; step < kSwapSteps; ++step) {
      const auto [a, b] = sequence.next();
      std::swap(assignment[static_cast<std::size_t>(a)],
                assignment[static_cast<std::size_t>(b)]);
      per_candidate(assignment, a, b);
      if (!accept_prng.chance(0.5)) {
        std::swap(assignment[static_cast<std::size_t>(a)],
                  assignment[static_cast<std::size_t>(b)]);
      }
    }
  };

  // Correctness pass (untimed): every candidate's solve must equal the
  // from-scratch place of the candidate, including the ones that follow a
  // rejected candidate.
  {
    SessionFeed feed(options, placement, base);
    row.bit_identical = true;
    drive([&](const Assignment& candidate, int a, int b) {
      row.bit_identical =
          row.bit_identical &&
          floorplans_equal(feed.solve(candidate, a, b),
                           planner.place(placement, candidate, base.switches));
    });
  }

  // Timing passes, best of kTimingRounds per side.
  row.from_scratch_ms = std::numeric_limits<double>::infinity();
  row.incremental_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kTimingRounds; ++round) {
    {
      double blackhole = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      drive([&](const Assignment& candidate, int, int) {
        blackhole +=
            planner.place(placement, candidate, base.switches).area_mm2();
      });
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(blackhole);
      row.from_scratch_ms = std::min(
          row.from_scratch_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    {
      SessionFeed feed(options, placement, base);
      double blackhole = 0.0;
      const auto t0 = std::chrono::steady_clock::now();
      drive([&](const Assignment& candidate, int a, int b) {
        blackhole += feed.solve(candidate, a, b).area_mm2();
      });
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(blackhole);
      row.incremental_ms = std::min(
          row.incremental_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return row;
}

void BM_FloorplanLongestPath(benchmark::State& state) {
  const auto mesh = topo::make_mesh_for(12);
  const auto inputs = vopd_inputs(*mesh);
  fplan::Floorplanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.place(mesh->relative_placement(),
                                           inputs.cores, inputs.switches));
  }
}
BENCHMARK(BM_FloorplanLongestPath)->Unit(benchmark::kMicrosecond);

void BM_FloorplanSimplexLp(benchmark::State& state) {
  const auto mesh = topo::make_mesh_for(12);
  const auto inputs = vopd_inputs(*mesh);
  fplan::Floorplanner::Options options;
  options.engine = fplan::Floorplanner::Engine::kSimplexLp;
  fplan::Floorplanner planner(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.place(mesh->relative_placement(),
                                           inputs.cores, inputs.switches));
  }
}
BENCHMARK(BM_FloorplanSimplexLp)->Unit(benchmark::kMillisecond);

void BM_FloorplanIncrementalSwap(benchmark::State& state) {
  const auto mesh = topo::make_mesh_for(12);
  auto inputs = vopd_inputs(*mesh);
  fplan::FloorplanSession session({}, mesh->relative_placement(),
                                  inputs.cores, inputs.switches);
  (void)session.solve();
  SwapSequence sequence(mesh->num_slots());
  std::vector<fplan::SlotShapeUpdate> updates(2);
  for (auto _ : state) {
    const auto [a, b] = sequence.next();
    std::swap(inputs.cores[static_cast<std::size_t>(a)],
              inputs.cores[static_cast<std::size_t>(b)]);
    updates[0] = {a, inputs.cores[static_cast<std::size_t>(a)]};
    updates[1] = {b, inputs.cores[static_cast<std::size_t>(b)]};
    session.update_shapes(updates);
    benchmark::DoNotOptimize(session.solve().area_mm2());
  }
}
BENCHMARK(BM_FloorplanIncrementalSwap)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Probe probe("floorplan", argc, argv);
  print_engine_comparison();
  print_sizing_ablation();

  bench::print_heading(
      "Swap-sequence probe: from-scratch place vs incremental session "
      "(bit-identical by contract)");
  std::vector<SwapWorkload> workloads;
  {
    SwapWorkload vopd_mesh{"vopd_mesh", apps::vopd(), nullptr};
    vopd_mesh.topology = topo::make_mesh_for(16);  // 12 cores on 16 slots
    workloads.push_back(std::move(vopd_mesh));
    SwapWorkload mpeg4_mesh{"mpeg4_mesh", apps::mpeg4(), nullptr};
    mpeg4_mesh.topology = topo::make_mesh_for(apps::mpeg4().num_cores());
    workloads.push_back(std::move(mpeg4_mesh));
    SwapWorkload vopd_bfly{"vopd_butterfly", apps::vopd(), nullptr};
    vopd_bfly.topology = topo::make_butterfly_for(apps::vopd().num_cores());
    workloads.push_back(std::move(vopd_bfly));
  }
  // The annealing-shaped probe adds a production-scale point: 48
  // heterogeneous cores on an 8x8 mesh, where the from-scratch structure
  // build the session skips grows with the design.
  std::vector<SwapWorkload> txn_workloads;
  {
    SwapWorkload vopd_mesh{"vopd_mesh", apps::vopd(), nullptr};
    vopd_mesh.topology = topo::make_mesh_for(16);
    txn_workloads.push_back(std::move(vopd_mesh));
    SwapWorkload mpeg4_mesh{"mpeg4_mesh", apps::mpeg4(), nullptr};
    mpeg4_mesh.topology = topo::make_mesh_for(apps::mpeg4().num_cores());
    txn_workloads.push_back(std::move(mpeg4_mesh));
    SwapWorkload vopd_bfly{"vopd_butterfly", apps::vopd(), nullptr};
    vopd_bfly.topology = topo::make_butterfly_for(apps::vopd().num_cores());
    txn_workloads.push_back(std::move(vopd_bfly));
    apps::SyntheticSpec spec;
    spec.num_cores = 48;
    spec.edge_density = 0.05;
    spec.seed = 42;
    SwapWorkload synth{"synth48_mesh", apps::synthetic(spec), nullptr};
    synth.topology = topo::make_mesh_for(64);
    txn_workloads.push_back(std::move(synth));
  }

  std::vector<LegRow> rows;
  util::Table table({"workload", "from-scratch ms", "incremental ms",
                     "speedup", "bit-identical"});
  bool all_identical = true;
  double total_scratch = 0.0;
  double total_incremental = 0.0;
  for (const auto& workload : workloads) {
    auto row = run_swap_probe(workload);
    all_identical = all_identical && row.bit_identical;
    total_scratch += row.from_scratch_ms;
    total_incremental += row.incremental_ms;
    table.add_row({row.key, util::Table::num(row.from_scratch_ms, 1),
                   util::Table::num(row.incremental_ms, 1),
                   util::Table::num(row.speedup(), 2) + "x",
                   row.bit_identical ? "yes" : "NO"});
    rows.push_back(std::move(row));
  }
  const double aggregate_speedup =
      total_incremental > 0.0 ? total_scratch / total_incremental : 0.0;
  std::printf("%saggregate incremental speedup: %.2fx over %d swaps x %zu "
              "workloads\n",
              table.to_string().c_str(), aggregate_speedup, kSwapSteps,
              workloads.size());

  bench::print_heading(
      "Annealing-shaped probe: accept/reject candidates through the session "
      "vs from-scratch place per candidate (default + rigid sizing)");
  std::vector<LegRow> txn_rows;
  util::Table txn_table({"workload", "from-scratch ms", "txn ms", "speedup",
                         "bit-identical"});
  bool txn_identical = true;
  double sized_scratch_total = 0.0, sized_incremental_total = 0.0;
  double rigid_scratch_total = 0.0, rigid_incremental_total = 0.0;
  for (const auto& workload : txn_workloads) {
    // Default sizing first (the evaluation stack's configuration), then the
    // rigid engine (sizing_passes = 0), which isolates the session's kept
    // constraint-graph structure from the sizing descent — the descent runs
    // identically on both sides of the comparison, so the rigid rows are
    // where the structure-reuse win itself is visible.
    fplan::Floorplanner::Options rigid;
    rigid.sizing_passes = 0;
    for (const auto& [options, key] :
         {std::pair<fplan::Floorplanner::Options, std::string>{{},
                                                               workload.name},
          std::pair<fplan::Floorplanner::Options, std::string>{
              rigid, workload.name + "_rigid"}}) {
      auto row = run_txn_probe(workload, options, key);
      txn_identical = txn_identical && row.bit_identical;
      const bool is_rigid = options.sizing_passes == 0;
      (is_rigid ? rigid_scratch_total : sized_scratch_total) +=
          row.from_scratch_ms;
      (is_rigid ? rigid_incremental_total : sized_incremental_total) +=
          row.incremental_ms;
      txn_table.add_row({row.key, util::Table::num(row.from_scratch_ms, 1),
                         util::Table::num(row.incremental_ms, 1),
                         util::Table::num(row.speedup(), 2) + "x",
                         row.bit_identical ? "yes" : "NO"});
      txn_rows.push_back(std::move(row));
    }
  }
  const double txn_speedup_rigid =
      rigid_incremental_total > 0.0
          ? rigid_scratch_total / rigid_incremental_total
          : 0.0;
  const double txn_speedup_sized =
      sized_incremental_total > 0.0
          ? sized_scratch_total / sized_incremental_total
          : 0.0;
  std::printf("%saggregate annealing-txn speedup: %.2fx rigid, %.2fx with "
              "sizing, over %d accept/reject candidates x %zu workloads\n",
              txn_table.to_string().c_str(), txn_speedup_rigid,
              txn_speedup_sized, kSwapSteps, txn_workloads.size());

  // The CI invariant: annealing accept/reject traffic through the session
  // must stay bit-identical AND keep its wall-clock win over from-scratch
  // floorplanning — >= 2x where the structure reuse is isolated (rigid),
  // >= 1.4x with the (side-independent) sizing descent folded in — or the
  // build fails.
  const bool annealing_incremental = txn_identical &&
                                     txn_speedup_rigid >= 2.0 &&
                                     txn_speedup_sized >= 1.4;

  probe.invariant("bit_identical", all_identical);
  probe.invariant("incremental_2x", aggregate_speedup >= 2.0);
  probe.invariant("annealing_incremental", annealing_incremental);
  probe.metric("swap_steps", kSwapSteps);
  probe.metric("aggregate_speedup", aggregate_speedup);
  probe.metric("annealing_txn_speedup_rigid", txn_speedup_rigid);
  probe.metric("annealing_txn_speedup_sized", txn_speedup_sized);
  // Only the incremental legs are gated sub-benchmarks: the from-scratch
  // legs are the deliberately slow reference path (their absolute time
  // shifts with runner generations, and a slowdown there would only make
  // the session look better); they stay in the tables for information.
  for (const auto& [table, suffix, legs] :
       {std::tuple{"swap_probe", "_incremental", &rows},
        std::tuple{"txn_probe", "_txn", &txn_rows}}) {
    for (const auto& row : *legs) {
      probe.row(table, {{"run", row.key},
                        {"from_scratch_ms", row.from_scratch_ms},
                        {"incremental_ms", row.incremental_ms},
                        {"speedup", row.speedup()},
                        {"bit_identical", row.bit_identical}});
      probe.sub_benchmark(row.key + suffix, row.incremental_ms);
    }
  }
  const int status = probe.finish();
  if (status != 0) return status;
  return sunmap::bench::run_benchmarks(argc, argv);
}
