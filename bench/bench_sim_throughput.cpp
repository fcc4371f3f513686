// Cross-PR simulation perf probe: event-driven vs cycle-stepped engine.
//
// Four sections:
//  * zero-load latency table (must match the analytic pipeline model
//    F + (S-1)*L, the same check the unit tests pin down);
//  * engine probe — the same (topology, routing, traffic) leg run by both
//    engines. Every leg gates bit-identity over the FULL SimStats record
//    (the engines share the router model; only how time advances differs),
//    and reports events/sec (granted flit traversals per wall second) and
//    simulated-cycles/sec for each engine. The event engine's win is
//    structural at light load — quiescent cycles cost one traffic poll
//    instead of a full router sweep — so the >=3x acceptance bar aggregates
//    over the light-load (rate 0.02 and sparse-trace) legs; the moderate
//    and saturated legs, where most routers hold flits every cycle and the
//    armed set approaches "all of them", are reported informationally.
//    Each leg also records a digest of its full SimStats record: the two
//    engines agreeing cannot catch a change to the router model they
//    share, but a digest that moves from its committed value does;
//  * parallel finalist tier — simulate_finalists() at 1/2/4 threads;
//  * model validation — the SimEvaluator finalist tier run on the paper's
//    figure workloads: each app's selected topology simulated under its own
//    trace, analytical zero-load delay vs contention-aware simulated delay.
//
// `--json` writes BENCH_sim_throughput.json (bench/probe.h). Its
// invariants: sim_bit_identical (every engine-probe leg), sim_event_3x
// (time-weighted aggregate event speedup over the gated light-load legs
// >= 3x), finalist_parallel_identical (the parallel finalist tier merges
// bit-identically at every thread count) and one <leg>_digest per engine
// leg. The binary exits nonzero when any boolean invariant fails, and when
// the 2-worker finalist tier is below 1.7x the serial pass on a multi-core
// machine (informational on single-core runners). Only the event legs and
// the finalist tier are sub-benchmarks: the cycle-stepped engine is the
// deliberately slower reference.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "bench/probe.h"
#include "mapping/sim_eval.h"
#include "select/explorer.h"
#include "select/selector.h"
#include "sim/simulator.h"
#include "topo/library.h"
#include "util/table.h"

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace sunmap;

constexpr int kTimingRounds = 3;

void print_zero_load_table() {
  bench::print_heading(
      "Zero-load latency vs analytic model (4-flit packets, 1-cycle links)");
  util::Table table({"topology", "pair", "switches", "analytic (cy)",
                     "simulated (cy)"});
  const auto library = topo::standard_library(16);
  for (const auto& topology : library) {
    const auto routes = sim::RouteTable::all_pairs(
        *topology, route::RoutingKind::kDimensionOrdered);
    const int src = 0;
    const int dst = topology->num_slots() - 1;
    const int switches = topology->min_switch_hops(src, dst);
    sim::SimConfig config;
    config.warmup_cycles = 200;
    config.measure_cycles = 4000;
    config.drain_cycles = 4000;
    sim::TraceTraffic traffic({{src, dst, 20.0}}, 4, 0.1);
    sim::Simulator simulator(*topology, routes, config);
    const auto stats = simulator.run(traffic);
    table.add_row({topology->name(),
                   std::to_string(src) + "->" + std::to_string(dst),
                   std::to_string(switches),
                   util::Table::num(4.0 + (switches - 1), 0),
                   util::Table::num(stats.avg_latency_cycles, 2)});
  }
  std::printf("%s", table.to_string().c_str());
}

// ---- Engine probe: event-driven vs cycle-stepped, bit-identity gated. ----

struct Workloads {
  std::unique_ptr<topo::Topology> mesh16 = topo::make_mesh_for(16);
  std::unique_ptr<topo::Topology> torus16 = topo::make_torus_for(16);
  std::unique_ptr<topo::Topology> clos16 = topo::make_clos_for(16);
  std::unique_ptr<topo::Topology> mesh64 = topo::make_mesh_for(64);
};

struct EngineLeg {
  std::string key;
  const topo::Topology* topology = nullptr;
  route::RoutingKind kind = route::RoutingKind::kDimensionOrdered;
  bool gated_3x = false;  ///< leg participates in the 3x aggregate
  /// Fresh traffic per run: BurstyTraffic carries burst state across runs,
  /// so every timed or checked run gets its own instance.
  std::function<std::unique_ptr<sim::TrafficModel>(int num_slots)> traffic;
  sim::SimConfig config;  ///< engine field is overwritten per side
};

std::unique_ptr<sim::TrafficModel> uniform(int slots, double rate) {
  return std::make_unique<sim::PatternTraffic>(slots, sim::Pattern::kUniform,
                                               rate, 4);
}

std::vector<EngineLeg> make_engine_legs(const Workloads& w) {
  using K = route::RoutingKind;
  sim::SimConfig base;
  base.warmup_cycles = 300;
  base.measure_cycles = 3000;
  base.drain_cycles = 6000;
  base.distance_class_vcs = true;

  std::vector<EngineLeg> legs;
  const auto add = [&](std::string key, const topo::Topology* topology,
                       K kind, bool gated, double rate) {
    EngineLeg leg;
    leg.key = std::move(key);
    leg.topology = topology;
    leg.kind = kind;
    leg.gated_3x = gated;
    leg.traffic = [rate](int slots) { return uniform(slots, rate); };
    leg.config = base;
    legs.push_back(std::move(leg));
  };
  // Light load (rate 0.02): the quiescence-dominated regime the event
  // engine exists for — the gated >=3x aggregate.
  add("mesh16_u002", w.mesh16.get(), K::kDimensionOrdered, true, 0.02);
  add("torus16_u002", w.torus16.get(), K::kDimensionOrdered, true, 0.02);
  add("clos16_u002", w.clos16.get(), K::kMinPath, true, 0.02);
  add("mesh64_u002", w.mesh64.get(), K::kDimensionOrdered, true, 0.02);
  // Sparse trace (a handful of active flows, most routers idle): also
  // gated — this is the shape the explorer's finalist tier simulates.
  {
    EngineLeg leg;
    leg.key = "mesh16_trace";
    leg.topology = w.mesh16.get();
    leg.kind = K::kMinPath;
    leg.gated_3x = true;
    leg.traffic = [](int) {
      return std::make_unique<sim::TraceTraffic>(
          std::vector<sim::TrafficFlow>{
              {0, 15, 10.0}, {5, 10, 6.0}, {3, 12, 4.0}, {9, 6, 2.0}},
          4, 0.02);
    };
    leg.config = base;
    legs.push_back(std::move(leg));
  }
  // Moderate and heavy load: informational timing, identity still gated.
  add("mesh16_u005", w.mesh16.get(), K::kDimensionOrdered, false, 0.05);
  add("mesh64_u005", w.mesh64.get(), K::kDimensionOrdered, false, 0.05);
  add("mesh16_u015", w.mesh16.get(), K::kDimensionOrdered, false, 0.15);
  add("mesh64_u015", w.mesh64.get(), K::kDimensionOrdered, false, 0.15);
  // Bursty traffic: quiescent gaps between bursts even at a meaningful
  // burst rate — the event engine's skip logic under irregular load.
  {
    EngineLeg leg;
    leg.key = "mesh16_bursty";
    leg.topology = w.mesh16.get();
    leg.kind = K::kDimensionOrdered;
    leg.gated_3x = false;
    leg.traffic = [](int slots) {
      return std::make_unique<sim::BurstyTraffic>(
          slots, sim::Pattern::kUniform, 0.3, 4, 30.0, 0.3);
    };
    leg.config = base;
    legs.push_back(std::move(leg));
  }
  // Verdict paths: the engines must agree on HOW pathological runs end,
  // not just on healthy statistics. Single-VC wormhole deadlock (stall
  // verdict) and past-saturation bit-complement (throughput collapse).
  {
    EngineLeg leg;
    leg.key = "mesh16_deadlock";
    leg.topology = w.mesh16.get();
    leg.kind = K::kSplitAll;
    leg.gated_3x = false;
    leg.traffic = [](int slots) {
      return std::make_unique<sim::PatternTraffic>(
          slots, sim::Pattern::kBitComplement, 0.5, 4);
    };
    leg.config = base;
    leg.config.distance_class_vcs = false;
    leg.config.stall_limit_cycles = 300;
    legs.push_back(std::move(leg));
  }
  {
    EngineLeg leg;
    leg.key = "mesh16_saturated";
    leg.topology = w.mesh16.get();
    leg.kind = K::kDimensionOrdered;
    leg.gated_3x = false;
    leg.traffic = [](int slots) {
      return std::make_unique<sim::PatternTraffic>(
          slots, sim::Pattern::kBitComplement, 0.8, 4);
    };
    leg.config = base;
    leg.config.drain_cycles = 3000;
    legs.push_back(std::move(leg));
  }
  return legs;
}

bool stats_identical(const sim::SimStats& a, const sim::SimStats& b) {
  return a.cycles == b.cycles && a.packets_generated == b.packets_generated &&
         a.packets_delivered == b.packets_delivered &&
         a.avg_latency_cycles == b.avg_latency_cycles &&
         a.max_latency_cycles == b.max_latency_cycles &&
         a.p50_latency_cycles == b.p50_latency_cycles &&
         a.p95_latency_cycles == b.p95_latency_cycles &&
         a.p99_latency_cycles == b.p99_latency_cycles &&
         a.throughput_flits_per_cycle_per_slot ==
             b.throughput_flits_per_cycle_per_slot &&
         a.offered_flits_per_cycle_per_slot ==
             b.offered_flits_per_cycle_per_slot &&
         a.saturated == b.saturated && a.status == b.status &&
         a.stalled_cycles == b.stalled_cycles &&
         a.undelivered_packets == b.undelivered_packets &&
         a.flit_events == b.flit_events;
}

/// FNV-1a digest of the full SimStats record, verdict fields included, as
/// 16 hex digits.
std::string stats_digest(const sim::SimStats& s) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((word >> (8 * byte)) & 0xffU)) * 1099511628211ULL;
    }
  };
  for (const std::uint64_t word :
       {s.cycles, s.packets_generated, s.packets_delivered, s.stalled_cycles,
        s.undelivered_packets, s.flit_events,
        static_cast<std::uint64_t>(s.saturated),
        static_cast<std::uint64_t>(s.status)}) {
    mix(word);
  }
  for (const double value :
       {s.avg_latency_cycles, s.max_latency_cycles, s.p50_latency_cycles,
        s.p95_latency_cycles, s.p99_latency_cycles,
        s.throughput_flits_per_cycle_per_slot,
        s.offered_flits_per_cycle_per_slot}) {
    mix(std::bit_cast<std::uint64_t>(value));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

struct EngineRow {
  std::string key;
  std::string digest;  ///< stats_digest() of the event engine's run
  double event_ms = 0.0;
  double cycle_ms = 0.0;
  bool bit_identical = false;
  bool gated_3x = false;
  std::uint64_t flit_events = 0;
  std::uint64_t sim_cycles = 0;
  sim::RunStatus status = sim::RunStatus::kDrained;

  [[nodiscard]] double speedup() const {
    return event_ms > 0.0 ? cycle_ms / event_ms : 0.0;
  }
  [[nodiscard]] double events_per_sec(double ms) const {
    return ms > 0.0 ? static_cast<double>(flit_events) / (ms / 1000.0) : 0.0;
  }
  [[nodiscard]] double cycles_per_sec(double ms) const {
    return ms > 0.0 ? static_cast<double>(sim_cycles) / (ms / 1000.0) : 0.0;
  }
};

EngineRow run_engine_leg(const EngineLeg& leg) {
  const int num_slots = leg.topology->num_slots();
  const auto routes = sim::RouteTable::all_pairs(*leg.topology, leg.kind);
  const auto layout = sim::make_network_layout(*leg.topology);
  auto event_config = leg.config;
  event_config.engine = sim::SimEngine::kEventDriven;
  auto cycle_config = leg.config;
  cycle_config.engine = sim::SimEngine::kCycleStepped;
  sim::Simulator event_sim(*leg.topology, routes, event_config, layout);
  sim::Simulator cycle_sim(*leg.topology, routes, cycle_config, layout);

  EngineRow row;
  row.key = leg.key;
  row.gated_3x = leg.gated_3x;

  // Bit-identity over the FULL statistics record (untimed).
  {
    const auto event_traffic = leg.traffic(num_slots);
    const auto event_stats = event_sim.run(*event_traffic);
    const auto cycle_traffic = leg.traffic(num_slots);
    const auto cycle_stats = cycle_sim.run(*cycle_traffic);
    row.bit_identical = stats_identical(event_stats, cycle_stats);
    row.digest = stats_digest(event_stats);
    row.flit_events = event_stats.flit_events;
    row.sim_cycles = event_stats.cycles;
    row.status = event_stats.status;
  }

  // Timing, best of kTimingRounds per engine, fresh traffic per run.
  row.event_ms = std::numeric_limits<double>::infinity();
  row.cycle_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kTimingRounds; ++round) {
    {
      const auto traffic = leg.traffic(num_slots);
      const auto t0 = std::chrono::steady_clock::now();
      const auto stats = event_sim.run(*traffic);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(stats);
      row.event_ms = std::min(
          row.event_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    {
      const auto traffic = leg.traffic(num_slots);
      const auto t0 = std::chrono::steady_clock::now();
      const auto stats = cycle_sim.run(*traffic);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(stats);
      row.cycle_ms = std::min(
          row.cycle_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  return row;
}

// ---- Parallel finalist tier: thread scaling, bit-identity gated. ---------

struct FinalistScaling {
  std::size_t cells = 0;
  std::vector<int> threads;
  std::vector<double> ms;
  bool identical = true;

  [[nodiscard]] double speedup_at(int want) const {
    for (std::size_t i = 0; i < threads.size(); ++i) {
      if (threads[i] == want && ms[i] > 0.0) return ms[0] / ms[i];
    }
    return 0.0;
  }
};

/// Times simulate_finalists() on a prepared (sim-off) exploration report at
/// 1/2/4 worker threads and verifies every SimScore merges bit-identically
/// regardless of thread count.
FinalistScaling run_finalist_scaling() {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  select::ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.objectives = {mapping::Objective::kMinDelay,
                        mapping::Objective::kMinPower};
  request.routings = {route::RoutingKind::kDimensionOrdered,
                      route::RoutingKind::kMinPath};
  request.link_bandwidths_mbps = {500.0, 1000.0};
  select::DesignSpaceExplorer explorer;
  const auto base = explorer.explore(request);
  request.sim_finalists = 6;

  FinalistScaling scaling;
  std::vector<select::ExplorationReport> scored;
  for (const int threads : {1, 2, 4}) {
    request.num_threads = threads;
    double best_ms = std::numeric_limits<double>::infinity();
    for (int round = 0; round < kTimingRounds; ++round) {
      auto report = base;
      const auto t0 = std::chrono::steady_clock::now();
      select::simulate_finalists(request, report);
      const auto t1 = std::chrono::steady_clock::now();
      best_ms = std::min(
          best_ms,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      if (round + 1 == kTimingRounds) scored.push_back(std::move(report));
    }
    scaling.threads.push_back(threads);
    scaling.ms.push_back(best_ms);
  }

  const auto& reference = scored.front();
  for (const auto& result : reference.results) {
    for (const auto& candidate : result.selection.candidates) {
      if (candidate.sim.has_value()) ++scaling.cells;
    }
  }
  for (const auto& report : scored) {
    for (std::size_t p = 0; p < reference.results.size(); ++p) {
      const auto& ref = reference.results[p].selection.candidates;
      const auto& got = report.results[p].selection.candidates;
      for (std::size_t t = 0; t < ref.size(); ++t) {
        if (ref[t].sim.has_value() != got[t].sim.has_value()) {
          scaling.identical = false;
          continue;
        }
        if (!ref[t].sim.has_value()) continue;
        scaling.identical =
            scaling.identical &&
            stats_identical(ref[t].sim->stats, got[t].sim->stats) &&
            ref[t].sim->analytical_latency_cycles ==
                got[t].sim->analytical_latency_cycles;
      }
    }
  }
  return scaling;
}

// ---- Model validation: SimEvaluator on the figure workloads. -------------

struct ValidationRow {
  std::string key;
  std::string topology;
  double analytical_cycles = 0.0;
  double simulated_cycles = 0.0;
  double model_error = 0.0;
  sim::RunStatus status = sim::RunStatus::kDrained;
};

std::vector<ValidationRow> run_model_validation() {
  struct Figure {
    const char* key;
    mapping::CoreGraph app;
    mapping::MapperConfig config;
  };
  // Paper-matched constraints: the video apps run at 500 MB/s links (mpeg4
  // only fits with traffic splitting), the DSP filter's 600 MB/s FFT flows
  // need 1 GB/s links.
  std::vector<Figure> figures;
  figures.push_back({"vopd", apps::vopd(), {}});
  {
    mapping::MapperConfig config;
    config.routing = route::RoutingKind::kSplitAll;
    figures.push_back({"mpeg4", apps::mpeg4(), config});
  }
  {
    mapping::MapperConfig config;
    config.link_bandwidth_mbps = 1000.0;
    figures.push_back({"dsp", apps::dsp_filter(), config});
  }

  std::vector<ValidationRow> rows;
  for (auto& figure : figures) {
    const auto library = topo::standard_library(figure.app.num_cores());
    select::TopologySelector selector(figure.config);
    const auto report = selector.select(figure.app, library);
    const auto* best = report.best();
    if (best == nullptr) continue;
    mapping::SimEvaluator evaluator;
    const auto score =
        evaluator.score(figure.app, *best->topology, best->result);
    ValidationRow row;
    row.key = figure.key;
    row.topology = best->topology->name();
    row.analytical_cycles = score.analytical_latency_cycles;
    row.simulated_cycles = score.simulated_latency_cycles;
    row.model_error = score.model_error();
    row.status = score.stats.status;
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---- Micro-benchmarks. ---------------------------------------------------

void BM_SimulatorFlitThroughput(benchmark::State& state) {
  auto library = topo::standard_library(16);
  const auto& topology = *library[static_cast<std::size_t>(state.range(0))];
  const auto routes = sim::RouteTable::all_pairs(
      topology, route::RoutingKind::kDimensionOrdered);
  sim::SimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 5000;
  config.drain_cycles = 10000;
  std::uint64_t flits = 0;
  for (auto _ : state) {
    const auto stats = sim::simulate_pattern(topology, routes,
                                             sim::Pattern::kUniform, 0.15,
                                             config);
    benchmark::DoNotOptimize(stats);
    flits += stats.flit_events;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(flits), benchmark::Counter::kIsRate);
  state.SetLabel(topology.name());
}
BENCHMARK(BM_SimulatorFlitThroughput)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void BM_RouteTableAllPairs(benchmark::State& state) {
  const auto mesh = topo::make_mesh_for(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::RouteTable::all_pairs(*mesh, route::RoutingKind::kSplitMin));
  }
  state.SetLabel(mesh->name());
}
BENCHMARK(BM_RouteTableAllPairs)
    ->Arg(16)
    ->Arg(36)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::Probe probe("sim_throughput", argc, argv);
  print_zero_load_table();

  bench::print_heading(
      "Engine probe: event-driven vs cycle-stepped (full-record bit-identity "
      "gated on every leg; >=3x aggregate gated on the light-load legs)");
  const Workloads workloads;
  std::vector<EngineRow> engine_rows;
  util::Table engine_table({"leg", "cycle ms", "event ms", "speedup",
                            "Mev/s event", "Mev/s cycle", "status", "gated",
                            "bit-identical"});
  bool all_identical = true;
  double gated_cycle_ms = 0.0;
  double gated_event_ms = 0.0;
  for (const auto& leg : make_engine_legs(workloads)) {
    auto row = run_engine_leg(leg);
    all_identical = all_identical && row.bit_identical;
    if (row.gated_3x) {
      gated_cycle_ms += row.cycle_ms;
      gated_event_ms += row.event_ms;
    }
    engine_table.add_row(
        {row.key, util::Table::num(row.cycle_ms, 2),
         util::Table::num(row.event_ms, 2),
         util::Table::num(row.speedup(), 2) + "x",
         util::Table::num(row.events_per_sec(row.event_ms) / 1e6, 2),
         util::Table::num(row.events_per_sec(row.cycle_ms) / 1e6, 2),
         sim::to_string(row.status), row.gated_3x ? "3x" : "-",
         row.bit_identical ? "yes" : "NO"});
    engine_rows.push_back(std::move(row));
  }
  const double light_load_speedup =
      gated_event_ms > 0.0 ? gated_cycle_ms / gated_event_ms : 0.0;
  std::printf("%sgated light-load aggregate: %.2fx event over cycle-stepped "
              "(bar: 3x)\n",
              engine_table.to_string().c_str(), light_load_speedup);

  bench::print_heading(
      "Parallel finalist tier: simulate_finalists() thread scaling "
      "(bit-identical merge gated at every thread count)");
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const auto finalist = run_finalist_scaling();
  util::Table finalist_table({"threads", "ms", "speedup"});
  for (std::size_t i = 0; i < finalist.threads.size(); ++i) {
    finalist_table.add_row(
        {std::to_string(finalist.threads[i]),
         util::Table::num(finalist.ms[i], 2),
         util::Table::num(finalist.ms[0] / finalist.ms[i], 2) + "x"});
  }
  const double finalist_speedup_2t = finalist.speedup_at(2);
  std::printf("%s%zu finalist cells; merge bit-identical at every thread "
              "count: %s\n",
              finalist_table.to_string().c_str(), finalist.cells,
              finalist.identical ? "yes" : "NO");

  bench::print_heading(
      "Model validation: analytical zero-load delay vs simulated "
      "contention-aware delay on the figure workloads (SimEvaluator)");
  const auto validation_rows = run_model_validation();
  util::Table validation_table({"app", "topology", "analytical (cy)",
                                "simulated (cy)", "model err", "status"});
  for (const auto& row : validation_rows) {
    validation_table.add_row(
        {row.key, row.topology, util::Table::num(row.analytical_cycles, 2),
         util::Table::num(row.simulated_cycles, 2),
         util::Table::num(100.0 * row.model_error, 1) + "%",
         sim::to_string(row.status)});
  }
  std::printf("%s", validation_table.to_string().c_str());

  probe.invariant("sim_bit_identical", all_identical);
  probe.invariant("sim_event_3x", light_load_speedup >= 3.0);
  probe.invariant("finalist_parallel_identical", finalist.identical);
  probe.metric("event_speedup_light_load", light_load_speedup);
  probe.metric("finalist_speedup_2t", finalist_speedup_2t);
  probe.metric("finalist_cells", finalist.cells);
  probe.metric("hardware_threads", hardware_threads);
  for (const auto& row : engine_rows) {
    probe.invariant(row.key + "_digest", row.digest);
    probe.sub_benchmark(row.key + "_event", row.event_ms);
    probe.row("engine_probe",
              {{"run", row.key},
               {"cycle_ms", row.cycle_ms},
               {"event_ms", row.event_ms},
               {"speedup", row.speedup()},
               {"event_events_per_sec", row.events_per_sec(row.event_ms)},
               {"cycle_events_per_sec", row.events_per_sec(row.cycle_ms)},
               {"sim_cycles_per_sec", row.cycles_per_sec(row.event_ms)},
               {"gated_3x", row.gated_3x},
               {"bit_identical", row.bit_identical}});
  }
  for (std::size_t i = 0; i < finalist.threads.size(); ++i) {
    probe.sub_benchmark("finalist_" + std::to_string(finalist.threads[i]) + "t",
                        finalist.ms[i]);
    probe.row("finalist_scaling", {{"threads", finalist.threads[i]},
                                   {"ms", finalist.ms[i]},
                                   {"speedup", finalist.ms[0] / finalist.ms[i]}});
  }
  for (const auto& row : validation_rows) {
    probe.row("model_validation",
              {{"run", row.key},
               {"topology", row.topology},
               {"analytical_cycles", row.analytical_cycles},
               {"simulated_cycles", row.simulated_cycles},
               {"model_error", row.model_error},
               {"status", sim::to_string(row.status)}});
  }
  int status = probe.finish();
  if (hardware_threads >= 2 && finalist_speedup_2t < 1.7) {
    std::fprintf(stderr,
                 "FAIL: 2-worker finalist tier is only %.2fx the serial pass "
                 "on a %u-thread machine (need >= 1.7x)\n",
                 finalist_speedup_2t, hardware_threads);
    status = 1;
  }
  if (hardware_threads < 2) {
    std::printf(
        "note: %u hardware thread(s); the 2-worker >= 1.7x bar is "
        "informational here (%.2fx measured)\n",
        hardware_threads, finalist_speedup_2t);
  }
  if (status != 0) return status;
  return sunmap::bench::run_benchmarks(argc, argv);
}
