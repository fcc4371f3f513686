// Command-line front end to the SUNMAP flow: read a core graph (from a file
// in the src/io text format or one of the built-in benchmarks), run
// topology selection under the requested routing function / objective /
// constraints, print the comparison table, and optionally generate the
// SystemC-style network sources.
//
// With --sweep the tool runs a batched design-space exploration instead:
// the --routing/--objective/--bandwidth/--max-area flags then accept
// comma-separated lists, the cross product of which is swept through
// select::DesignSpaceExplorer with one reusable evaluation context per
// topology.
//
// Usage:
//   sunmap_cli --app vopd
//   sunmap_cli --file my_app.cg --routing SA --objective power \
//              --bandwidth 500 --extensions --out generated/
//   sunmap_cli --app vopd --sweep --objective delay,area,power \
//              --routing DO,MP,SM,SA --csv sweep.csv --json sweep.json

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/sunmap.h"
#include "fault/fault.h"
#include "fplan/render.h"
#include "io/core_graph_io.h"
#include "io/csv.h"
#include "io/exploration_io.h"
#include "mapping/sim_eval.h"
#include "select/explorer.h"
#include "sim/simulator.h"
#include "sweep/coordinator.h"
#include "sweep/daemon.h"
#include "util/table.h"

namespace {

using namespace sunmap;

void usage() {
  std::cout <<
      R"(sunmap_cli — automatic NoC topology selection and generation

  --app <name>        built-in benchmark: vopd | mpeg4 | dsp | netproc16 |
                      pip | mwd
  --file <path>       core graph file (see src/io/core_graph_io.h grammar)
  --routing <fn>      DO | MP | SM | SA           (default MP)
  --objective <obj>   delay | area | power | weighted   (default delay)
  --search <kind>     greedy | sa | rsa: greedy pairwise swaps, single-seed
                      simulated annealing, or the multi-restart annealer
                      (default greedy)
  --restarts <n>      independent annealing chains of --search rsa; the
                      total annealing budget is split across them and the
                      best-of-restarts mapping kept (default 4)
  --reheat <n>        temperature re-heats per annealing chain (default 0)
  --swap-passes <n>   hill-climbing passes of the greedy swap search
                      (default 2; 1 reproduces the paper)
  --fplan-engine <e>  floorplan position engine: lp (constraint-graph
                      longest path, default) | simplex (the literal
                      simplex LP of the paper)
  --fplan-sizing-passes <n>
                      soft-block aspect-ratio sizing passes (default 2;
                      0 keeps every soft block square)
  --w-delay <x>       weight of the delay term    (objective weighted)
  --w-area <x>        weight of the area term     (objective weighted)
  --w-power <x>       weight of the power term    (objective weighted)
  --faults <spec>     fault scenarios folded into the objective:
                      none | n1 (exhaustive single-channel failures) |
                      rand[M] (random scenarios of M channels each,
                      default 1) | an explicit list "a-b,c-d,s7/..."
                      (link faults by endpoint switches, sN = dead
                      switch N, / separates scenarios)  (default none)
  --fault-samples <n> random scenarios drawn by --faults rand (default 4)
  --fault-seed <s>    seed of the --faults rand sampler (default 1)
  --fault-mode <m>    worst (max over fault-free + degraded costs,
                      default) | weighted (weight-normalised mean)
  --fault-penalty <x> fault-free-cost multiplier charged when a scenario
                      disconnects a commodity; must be >= 1 (default 10)
  --bandwidth <MBps>  link capacity               (default 500)
  --sim-engine <e>    flit-level simulator core: event (event-driven,
                      default) | cycle (the cycle-stepped reference; both
                      engines produce bit-identical statistics)
  --sim-finalists <n> high-fidelity finalist tier: after selection the
                      flit-level simulator re-scores the n best feasible
                      candidates (per objective group in sweeps) under the
                      application's own trace, reporting contention-aware
                      delay next to the analytical number (default 0 = off)
  --sim-validate      simulate EVERY feasible candidate and print the
                      analytical-vs-simulated model-validation table (the
                      finalist tier with no cap)
  --sim-rank          two-phase simulated-delay ranking: the analytical
                      search prefilters each objective group to its
                      --sim-finalists best cells (defaults to 3 when
                      unset), the simulator re-ranks those, and the
                      sim-winner table prints next to the analytical
                      winners (sweep reports gain a sim_best CSV column
                      and a sim_winners JSON array). Purely additive:
                      analytical results are bit-identical with it off
  --sim-seed <s>      simulator PRNG seed, decoupled from --seed (the
                      search seed); must be >= 1 (default 1, today's
                      behavior)
  --sim-traffic <t>   finalist-tier traffic model: trace (the mapped
                      commodity rates, default) | bursty (per-flow on/off
                      modulation of the same rates; equal long-run load)
  --sim-burst-len <c> mean burst length in cycles of --sim-traffic bursty
                      (default 50)
  --sim-burst-duty <d> duty cycle in (0,1) of --sim-traffic bursty
                      (default 0.3)
  --threads <n>       swap-search worker threads  (default 1; any n is
                      deterministic and matches the sequential result)
  --max-area <mm2>    area constraint             (default unlimited)
  --extensions        include octagon/star topologies
  --floorplan         print the winning floorplan as ASCII
  --csv <path>        write the comparison table as CSV
  --out <dir>         write generated SystemC sources here
  --sweep             batched design-space exploration: --routing,
                      --objective, --bandwidth, --max-area, --search,
                      --restarts, --swap-passes, --fplan-engine,
                      --fplan-sizing-passes, and --faults accept
                      comma-separated lists (--faults sweeps named specs
                      only — none/n1/rand[M]; explicit scenario lists
                      contain commas and need single-point mode)
                      and the whole cross product is explored with one
                      evaluation context per topology;
                      prints the comparison matrix, per-objective winners,
                      and the area/power Pareto frontier. --floorplan then
                      renders each objective winner's floorplan and --out
                      writes each winner's generated sources to
                      <dir>/<objective>/. In sweep mode --threads means
                      explorer workers spread across topologies (each swap
                      search stays sequential); any thread count returns
                      the identical report
  --json <path>       write the exploration report as JSON (sweep only)

Distributed sweeps (with --sweep; see README "Distributed sweeps"):
  --workers <n>       distribute the sweep across n worker processes; the
                      merged report is bit-identical to the single-process
                      explorer at any worker/shard count
  --shards <n>        shards the grid is split into (default: one per
                      worker; more shards = finer crash-recovery granules)
  --checkpoint <path> append-only journal of completed points; a killed
                      sweep resumes from it with --resume
  --resume            fold the checkpoint's completed points in and only
                      evaluate the remainder (fingerprint-checked)
  --progress          periodic progress lines on stderr (done/total, ETA,
                      points/s, per-worker throughput)

Daemon mode:
  --serve <socket>    serve sweep requests over a unix socket, keeping
                      per-topology evaluation contexts alive across
                      requests; SIGINT (or --serve-requests) stops it
  --serve-requests <n>  exit after serving n requests (default: unlimited)
  --serve-threads <n>   accept-loop worker threads; concurrent requests
                      over different (app, extensions) pairs evaluate in
                      parallel, requests sharing a context pool queue on
                      it (default 1)
  --call <socket>     submit THIS command line's --app/--objective/... as a
                      request to a running daemon and print the JSON reply
  --help              this text
)";
}

void handle_sigint(int) { sweep::request_stop(); }

std::optional<route::RoutingKind> parse_routing(const std::string& text) {
  for (route::RoutingKind kind : route::kAllRoutingKinds) {
    if (text == route::to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<mapping::Objective> parse_objective(const std::string& text) {
  if (text == "delay") return mapping::Objective::kMinDelay;
  if (text == "area") return mapping::Objective::kMinArea;
  if (text == "power") return mapping::Objective::kMinPower;
  if (text == "weighted") return mapping::Objective::kWeighted;
  return std::nullopt;
}

std::optional<fplan::Floorplanner::Engine> parse_fplan_engine(
    const std::string& text) {
  if (text == "lp" || text == "longest-path") {
    return fplan::Floorplanner::Engine::kLongestPath;
  }
  if (text == "simplex" || text == "simplex-lp") {
    return fplan::Floorplanner::Engine::kSimplexLp;
  }
  return std::nullopt;
}

std::optional<mapping::SearchKind> parse_search(const std::string& text) {
  if (text == "greedy" || text == "greedy-swaps") {
    return mapping::SearchKind::kGreedySwaps;
  }
  if (text == "sa" || text == "annealing") {
    return mapping::SearchKind::kAnnealing;
  }
  if (text == "rsa" || text == "restart" || text == "restart-annealing") {
    return mapping::SearchKind::kRestartAnnealing;
  }
  return std::nullopt;
}

/// Parses one --faults spec. `base` supplies the sampler parameters the
/// --fault-samples/--fault-seed flags may already have set, so flag order
/// does not matter. Grammar: "none" | "n1" | "rand[M]" | explicit scenario
/// list "a-b,c-d,s7/..." ('/' separates scenarios, ',' separates faults,
/// "a-b" fails the channel between switches a and b, "sN" kills switch N).
std::optional<fault::FaultSpec> parse_fault_spec(const std::string& text,
                                                 const fault::FaultSpec& base) {
  fault::FaultSpec spec = base;
  spec.scenarios.clear();
  if (text == "none") {
    spec.kind = fault::FaultSpec::Kind::kNone;
    return spec;
  }
  if (text == "n1") {
    spec.kind = fault::FaultSpec::Kind::kEveryLink;
    return spec;
  }
  if (text.rfind("rand", 0) == 0) {
    spec.kind = fault::FaultSpec::Kind::kRandom;
    try {
      if (text.size() > 4) spec.faults_per_scenario = std::stoi(text.substr(4));
    } catch (const std::exception&) {
      return std::nullopt;
    }
    return spec;
  }
  spec.kind = fault::FaultSpec::Kind::kExplicit;
  try {
    std::stringstream scenarios(text);
    std::string scenario_text;
    while (std::getline(scenarios, scenario_text, '/')) {
      fault::ScenarioSpec scenario;
      std::stringstream faults(scenario_text);
      std::string item;
      while (std::getline(faults, item, ',')) {
        if (item.empty()) return std::nullopt;
        if (item.front() == 's') {
          scenario.switches.push_back(std::stoi(item.substr(1)));
          continue;
        }
        const auto dash = item.find('-', 1);
        if (dash == std::string::npos) return std::nullopt;
        scenario.links.push_back({std::stoi(item.substr(0, dash)),
                                  std::stoi(item.substr(dash + 1))});
      }
      if (scenario.links.empty() && scenario.switches.empty()) {
        return std::nullopt;
      }
      spec.scenarios.push_back(std::move(scenario));
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (spec.scenarios.empty()) return std::nullopt;
  return spec;
}

std::optional<fault::Aggregation> parse_fault_mode(const std::string& text) {
  if (text == "worst" || text == "worst-case") {
    return fault::Aggregation::kWorstCase;
  }
  if (text == "weighted") return fault::Aggregation::kWeighted;
  return std::nullopt;
}

std::optional<mapping::CoreGraph> builtin_app(const std::string& name) {
  if (name == "vopd") return apps::vopd();
  if (name == "mpeg4") return apps::mpeg4();
  if (name == "dsp") return apps::dsp_filter();
  if (name == "netproc16") return apps::netproc16();
  if (name == "pip") return apps::pip();
  if (name == "mwd") return apps::mwd();
  return std::nullopt;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

/// The value lists and output options a sweep run consumes.
struct SweepArgs {
  std::vector<std::string> objectives, routings, bandwidths, max_areas,
      searches, restarts, swap_passes, fplan_engines, fplan_sizing;
  /// Raw --faults value; split on ',' here (named specs only in sweeps).
  std::string faults;
  int threads = 1;
  bool show_floorplan = false;
  /// --sim-validate: simulate every feasible cell (finalist tier, no cap).
  bool sim_validate = false;
  std::string out_dir;
  std::string csv_path;
  std::string json_path;
  /// Distributed-sweep options (--workers/--shards/--checkpoint/--resume/
  /// --progress). workers == 0 and an empty checkpoint keep the sweep
  /// in-process, exactly as before.
  int workers = 0;
  int shards = 0;
  std::string checkpoint_path;
  bool resume = false;
  bool progress = false;
  /// The invoking command line, for the "resume with: ..." hint printed
  /// after an interrupted checkpointed sweep.
  std::string command_line;
};

int run_sweep(const mapping::CoreGraph& app, const core::SunmapConfig& config,
              const SweepArgs& args) {
  const auto& objectives = args.objectives;
  const auto& routings = args.routings;
  const auto& searches = args.searches;
  select::ExplorationRequest request;
  request.app = &app;
  request.base = config.mapper;
  request.num_threads = args.threads;
  request.sim_finalists = args.sim_validate
                              ? std::numeric_limits<int>::max()
                              : config.mapper.sim_finalists;
  request.sim_rank = config.mapper.sim_rank;
  for (const auto& text : objectives) {
    const auto objective = parse_objective(text);
    if (!objective) {
      std::cerr << "unknown objective " << text << "\n";
      return 2;
    }
    request.objectives.push_back(*objective);
  }
  for (const auto& text : routings) {
    const auto kind = parse_routing(text);
    if (!kind) {
      std::cerr << "unknown routing function " << text << "\n";
      return 2;
    }
    request.routings.push_back(*kind);
  }
  for (const auto& text : searches) {
    const auto kind = parse_search(text);
    if (!kind) {
      std::cerr << "unknown search strategy " << text << "\n";
      return 2;
    }
    request.searches.push_back(*kind);
  }
  try {
    for (const auto& text : args.bandwidths) {
      request.link_bandwidths_mbps.push_back(std::stod(text));
    }
    for (const auto& text : args.max_areas) {
      request.max_areas_mm2.push_back(std::stod(text));
    }
    for (const auto& text : args.restarts) {
      request.restart_counts.push_back(std::stoi(text));
    }
    for (const auto& text : args.swap_passes) {
      request.swap_passes.push_back(std::stoi(text));
    }
  } catch (const std::exception&) {
    std::cerr << "bad numeric list value\n";
    return 2;
  }

  // The floorplan axis is the cross product of the engine and sizing-pass
  // lists over the base floorplan options; either list left empty falls
  // back to the base value, and both empty leaves the axis unswept.
  if (!args.fplan_engines.empty() || !args.fplan_sizing.empty()) {
    std::vector<fplan::Floorplanner::Engine> engines;
    for (const auto& text : args.fplan_engines) {
      const auto engine = parse_fplan_engine(text);
      if (!engine) {
        std::cerr << "unknown floorplan engine " << text << "\n";
        return 2;
      }
      engines.push_back(*engine);
    }
    if (engines.empty()) engines.push_back(config.mapper.floorplan.engine);
    std::vector<int> sizing;
    try {
      for (const auto& text : args.fplan_sizing) {
        sizing.push_back(std::stoi(text));
      }
    } catch (const std::exception&) {
      std::cerr << "bad numeric list value\n";
      return 2;
    }
    if (sizing.empty()) sizing.push_back(config.mapper.floorplan.sizing_passes);
    for (const auto engine : engines) {
      for (const int passes : sizing) {
        auto options = config.mapper.floorplan;
        options.engine = engine;
        options.sizing_passes = passes;
        request.floorplan_options.push_back(std::move(options));
      }
    }
  }

  // The fault axis sweeps named specs; the aggregation mode, penalty, and
  // sampler parameters come from the single-valued --fault-* flags and are
  // shared by every entry.
  if (!args.faults.empty()) {
    for (const auto& text : split_list(args.faults)) {
      const auto spec = parse_fault_spec(text, config.mapper.faults.spec);
      if (!spec || spec->kind == fault::FaultSpec::Kind::kExplicit) {
        std::cerr << "bad sweep fault spec " << text
                  << " (sweeps take none | n1 | rand[M])\n";
        return 2;
      }
      auto faults = config.mapper.faults;
      faults.spec = *spec;
      request.fault_sets.push_back(std::move(faults));
    }
  }

  const auto library = topo::standard_library(
      app.num_cores(), config.include_extension_topologies);
  request.library = &library;

  const bool distributed = args.workers > 0 || !args.checkpoint_path.empty();
  if (distributed && (request.sim_finalists > 0 || request.sim_rank)) {
    std::cerr << "--sim-finalists/--sim-validate/--sim-rank need an "
                 "in-process sweep (merged reports carry no routes to "
                 "simulate)\n";
    return 2;
  }
  std::optional<select::ExplorationReport> report;
  try {
    if (distributed) {
      sweep::SweepOptions options;
      options.num_workers = std::max(1, args.workers);
      options.num_shards = args.shards;
      options.checkpoint_path = args.checkpoint_path;
      options.resume = args.resume;
      options.progress = args.progress;
      options.description = app.name();
      sweep::reset_stop();
      std::signal(SIGINT, handle_sigint);
      auto result = sweep::run_sweep(request, options);
      std::signal(SIGINT, SIG_DFL);
      if (result.stats.interrupted) {
        std::cerr << "sweep interrupted: " << result.stats.points_evaluated
                  << " newly completed points";
        if (!args.checkpoint_path.empty()) {
          std::cerr << " flushed to " << args.checkpoint_path
                    << "\nresume with: " << args.command_line;
          if (!args.resume) std::cerr << " --resume";
        }
        std::cerr << "\n";
        return 130;
      }
      report = std::move(result.report);
    } else {
      select::DesignSpaceExplorer explorer;
      report = explorer.explore(request);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "Sweep: " << report->results.size() << " design points x "
            << library.size() << " topologies\n\n";
  util::Table matrix({"point", "routing", "objective", "search", "BW (MB/s)",
                      "feasible", "best topology", "cost", "area (mm2)",
                      "power (mW)"});
  for (std::size_t p = 0; p < report->results.size(); ++p) {
    const auto& result = report->results[p];
    const auto& cfg = result.point.config;
    int feasible = 0;
    for (const auto& candidate : result.selection.candidates) {
      if (candidate.feasible()) ++feasible;
    }
    const auto* best = result.selection.best();
    matrix.add_row(
        {std::to_string(p), route::to_string(cfg.routing),
         mapping::to_string(cfg.objective),
         cfg.search == mapping::SearchKind::kRestartAnnealing
             ? std::string(mapping::to_string(cfg.search)) + "-x" +
                   std::to_string(cfg.annealing_restarts)
             : mapping::to_string(cfg.search),
         util::Table::num(cfg.link_bandwidth_mbps, 0),
         std::to_string(feasible) + "/" +
             std::to_string(result.selection.candidates.size()),
         best != nullptr ? best->topology->name() : "-",
         best != nullptr ? util::Table::num(best->result.eval.cost) : "-",
         best != nullptr
             ? util::Table::num(best->result.eval.design_area_mm2)
             : "-",
         best != nullptr
             ? util::Table::num(best->result.eval.design_power_mw, 1)
             : "-"});
  }
  std::cout << matrix.to_string() << "\n";

  std::cout << "Per-objective winners:\n";
  util::Table winners({"objective", "design point", "topology", "cost"});
  for (const auto& best : report->winners) {
    if (best.found()) {
      const auto& result =
          report->results[static_cast<std::size_t>(best.point_index)];
      const auto& candidate =
          result.selection
              .candidates[static_cast<std::size_t>(best.topology_index)];
      winners.add_row({mapping::to_string(best.objective),
                       result.point.label(), candidate.topology->name(),
                       util::Table::num(candidate.result.eval.cost)});
    } else {
      winners.add_row(
          {mapping::to_string(best.objective), "-", "infeasible", "-"});
    }
  }
  std::cout << winners.to_string() << "\n";

  // The simulated-delay re-rank (--sim-rank): the cell the simulator
  // crowns per objective group, next to the analytical winner table above.
  if (request.sim_rank) {
    std::cout << "Simulated-delay winners (re-ranked top "
              << request.sim_finalists << " per objective):\n";
    util::Table sim_winners(
        {"objective", "design point", "topology", "simulated (cyc)", "cost"});
    for (const auto& best : report->sim_winners) {
      if (best.found()) {
        const auto& result =
            report->results[static_cast<std::size_t>(best.point_index)];
        const auto& candidate =
            result.selection
                .candidates[static_cast<std::size_t>(best.topology_index)];
        sim_winners.add_row(
            {mapping::to_string(best.objective), result.point.label(),
             candidate.topology->name(),
             candidate.sim.has_value()
                 ? util::Table::num(candidate.sim->simulated_latency_cycles)
                 : "-",
             util::Table::num(candidate.result.eval.cost)});
      } else {
        sim_winners.add_row(
            {mapping::to_string(best.objective), "-", "infeasible", "-", "-"});
      }
    }
    std::cout << sim_winners.to_string() << "\n";
  }

  // The finalist tier's verdicts: one row per simulated (point, topology)
  // cell, the contention-aware delay next to the zero-load prediction.
  if (request.sim_finalists > 0) {
    std::cout << "Simulated finalists ("
              << sim::to_string(request.base.sim_engine)
              << " engine):\n";
    util::Table sims({"point", "topology", "analytical (cyc)",
                      "simulated (cyc)", "model err", "status"});
    for (std::size_t p = 0; p < report->results.size(); ++p) {
      for (const auto& candidate : report->results[p].selection.candidates) {
        if (!candidate.sim.has_value()) continue;
        sims.add_row(
            {std::to_string(p), candidate.topology->name(),
             util::Table::num(candidate.sim->analytical_latency_cycles),
             util::Table::num(candidate.sim->simulated_latency_cycles),
             util::Table::num(candidate.sim->model_error() * 100.0, 1) + "%",
             sim::to_string(candidate.sim->stats.status)});
      }
    }
    std::cout << sims.to_string() << "\n";
  }

  if (!report->pareto.empty()) {
    std::cout << "Area/power Pareto frontier over all feasible mappings:\n";
    util::Table pareto({"area (mm2)", "power (mW)"});
    for (const auto& point : report->pareto) {
      pareto.add_row({util::Table::num(point.area_mm2),
                      util::Table::num(point.power_mw, 1)});
    }
    std::cout << pareto.to_string() << "\n";
  }

  // Sweep-mode --floorplan / --out operate on the per-objective winners:
  // each winner's floorplan is rendered, and its generated sources go to
  // <out>/<objective>[-wN]/ so several winners never overwrite each other.
  // A distributed sweep merges scalars only (floorplan geometry stays in
  // the worker processes), so those two outputs need a single-process run.
  if (distributed && (args.show_floorplan || !args.out_dir.empty())) {
    std::cout << "note: --floorplan/--out need floorplan geometry, which a "
                 "distributed sweep does not merge; rerun the winning "
                 "point without --workers to render or generate it.\n";
  }
  for (const auto& best : report->winners) {
    if (distributed) break;  // No geometry to render in merged reports.
    if (!best.found()) continue;
    const auto& result =
        report->results[static_cast<std::size_t>(best.point_index)];
    const auto& candidate =
        result.selection
            .candidates[static_cast<std::size_t>(best.topology_index)];
    std::string tag = mapping::to_string(best.objective);
    if (best.weights_index >= 0) {
      tag += "-w" + std::to_string(best.weights_index);
    }
    if (args.show_floorplan) {
      const auto& slot_to_core = candidate.result.slot_to_core;
      std::cout << "Floorplan of the " << tag << " winner ("
                << candidate.topology->name() << ", "
                << result.point.label() << "):\n"
                << fplan::render_ascii(
                       candidate.result.eval.floorplan,
                       [&](const fplan::PlacedBlock& block) {
                         if (block.kind == fplan::PlacedBlock::Kind::kSwitch) {
                           return "S" + std::to_string(block.index);
                         }
                         const int core = slot_to_core[
                             static_cast<std::size_t>(block.index)];
                         return core >= 0 ? app.core(core).name
                                          : std::string("-");
                       })
                << "\n";
    }
    if (!args.out_dir.empty()) {
      const auto netlist = gen::Netlist::build(
          *candidate.topology, app, candidate.result.core_to_slot,
          &candidate.result.eval.floorplan);
      const auto dir =
          (std::filesystem::path(args.out_dir) / tag).string();
      std::filesystem::create_directories(dir);
      gen::SystemCWriter writer;
      for (const auto& file : writer.write_to(netlist, dir)) {
        std::cout << "wrote " << file << "\n";
      }
    }
  }

  if (!args.csv_path.empty()) {
    io::write_file(args.csv_path, io::exploration_report_csv(*report));
    std::cout << "wrote " << args.csv_path << "\n";
  }
  if (!args.json_path.empty()) {
    io::write_file(args.json_path, io::exploration_report_json(*report));
    std::cout << "wrote " << args.json_path << "\n";
  }

  for (const auto& best : report->winners) {
    if (best.found()) return 0;
  }
  std::cout << "No feasible mapping for any design point.\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<mapping::CoreGraph> app;
  std::string app_name;
  core::SunmapConfig config;
  bool show_floorplan = false;
  bool sweep = false;
  bool sim_validate = false;
  int threads = 1;
  int workers = 0;
  int shards = 0;
  bool resume = false;
  bool progress = false;
  int serve_requests = -1;
  int serve_threads = 1;
  std::string checkpoint_path;
  std::string serve_socket;
  std::string call_socket;
  std::string csv_path;
  std::string json_path;
  std::string faults_text;
  std::vector<std::string> objectives, routings, bandwidths, max_areas,
      searches, restarts, swap_passes, fplan_engines, fplan_sizing;

  std::string command_line;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) command_line += ' ';
    command_line += argv[i];
  }

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--app") {
        app_name = need_value(i);
        app = builtin_app(app_name);
        if (!app) {
          std::cerr << "unknown built-in app\n";
          return 2;
        }
      } else if (arg == "--file") {
        app = io::read_core_graph_file(need_value(i));
      } else if (arg == "--routing") {
        routings = split_list(need_value(i));
      } else if (arg == "--objective") {
        objectives = split_list(need_value(i));
      } else if (arg == "--search") {
        searches = split_list(need_value(i));
      } else if (arg == "--restarts") {
        restarts = split_list(need_value(i));
      } else if (arg == "--reheat") {
        config.mapper.annealing_reheats = std::stoi(need_value(i));
      } else if (arg == "--swap-passes") {
        swap_passes = split_list(need_value(i));
      } else if (arg == "--fplan-engine") {
        fplan_engines = split_list(need_value(i));
      } else if (arg == "--fplan-sizing-passes") {
        fplan_sizing = split_list(need_value(i));
      } else if (arg == "--faults") {
        // Kept raw: explicit fault specs use ',' inside one scenario, so
        // splitting into sweep values happens only in sweep mode.
        faults_text = need_value(i);
      } else if (arg == "--fault-samples") {
        config.mapper.faults.spec.num_scenarios = std::stoi(need_value(i));
      } else if (arg == "--fault-seed") {
        config.mapper.faults.spec.seed = std::stoull(need_value(i));
      } else if (arg == "--fault-mode") {
        const std::string text = need_value(i);
        const auto mode = parse_fault_mode(text);
        if (!mode) {
          std::cerr << "unknown fault mode " << text << "\n";
          return 2;
        }
        config.mapper.faults.aggregation = *mode;
      } else if (arg == "--fault-penalty") {
        config.mapper.faults.infeasible_penalty = std::stod(need_value(i));
      } else if (arg == "--bandwidth") {
        bandwidths = split_list(need_value(i));
      } else if (arg == "--sim-engine") {
        const std::string text = need_value(i);
        if (text == "event") {
          config.mapper.sim_engine = sim::SimEngine::kEventDriven;
        } else if (text == "cycle") {
          config.mapper.sim_engine = sim::SimEngine::kCycleStepped;
        } else {
          std::cerr << "unknown sim engine " << text << " (event | cycle)\n";
          return 2;
        }
      } else if (arg == "--sim-finalists") {
        config.mapper.sim_finalists = std::stoi(need_value(i));
      } else if (arg == "--sim-validate") {
        sim_validate = true;
      } else if (arg == "--sim-rank") {
        config.mapper.sim_rank = true;
      } else if (arg == "--sim-seed") {
        config.mapper.sim_seed = std::stoull(need_value(i));
      } else if (arg == "--sim-traffic") {
        const std::string text = need_value(i);
        if (text == "trace") {
          config.mapper.sim_traffic = mapping::SimTraffic::kTrace;
        } else if (text == "bursty") {
          config.mapper.sim_traffic = mapping::SimTraffic::kBursty;
        } else {
          std::cerr << "unknown sim traffic " << text
                    << " (trace | bursty)\n";
          return 2;
        }
      } else if (arg == "--sim-burst-len") {
        config.mapper.sim_burst_len = std::stod(need_value(i));
      } else if (arg == "--sim-burst-duty") {
        config.mapper.sim_burst_duty = std::stod(need_value(i));
      } else if (arg == "--w-delay") {
        config.mapper.weights.delay = std::stod(need_value(i));
      } else if (arg == "--w-area") {
        config.mapper.weights.area = std::stod(need_value(i));
      } else if (arg == "--w-power") {
        config.mapper.weights.power = std::stod(need_value(i));
      } else if (arg == "--threads") {
        threads = std::stoi(need_value(i));
      } else if (arg == "--max-area") {
        max_areas = split_list(need_value(i));
      } else if (arg == "--sweep") {
        sweep = true;
      } else if (arg == "--workers") {
        workers = std::stoi(need_value(i));
      } else if (arg == "--shards") {
        shards = std::stoi(need_value(i));
      } else if (arg == "--checkpoint") {
        checkpoint_path = need_value(i);
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg == "--progress") {
        progress = true;
      } else if (arg == "--serve") {
        serve_socket = need_value(i);
      } else if (arg == "--serve-requests") {
        serve_requests = std::stoi(need_value(i));
      } else if (arg == "--serve-threads") {
        serve_threads = std::stoi(need_value(i));
      } else if (arg == "--call") {
        call_socket = need_value(i);
      } else if (arg == "--extensions") {
        config.include_extension_topologies = true;
      } else if (arg == "--floorplan") {
        show_floorplan = true;
      } else if (arg == "--csv") {
        csv_path = need_value(i);
      } else if (arg == "--json") {
        json_path = need_value(i);
      } else if (arg == "--out") {
        config.output_directory = need_value(i);
        std::filesystem::create_directories(config.output_directory);
      } else {
        std::cerr << "unknown argument " << arg << " (try --help)\n";
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  // Daemon mode: no local evaluation at all — serve sweep requests over
  // the socket until SIGINT (or the request budget) stops the loop.
  if (!serve_socket.empty()) {
    sweep::reset_stop();
    std::signal(SIGINT, handle_sigint);
    try {
      sweep::DaemonOptions options;
      options.socket_path = serve_socket;
      options.max_requests = serve_requests;
      options.accept_threads = serve_threads;
      options.verbose = true;
      const auto stats = sweep::serve(options);
      std::cout << "served " << stats.requests_served << " request(s), "
                << stats.requests_failed << " failed\n";
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  if (!app) {
    usage();
    return 2;
  }

  // Client mode: translate this command line into a daemon request and
  // print the JSON report the daemon returns.
  if (!call_socket.empty()) {
    if (app_name.empty()) {
      std::cerr << "--call needs --app (daemon requests name built-in "
                   "apps)\n";
      return 2;
    }
    std::string request_text = "app=" + app_name + "\n";
    auto add_list = [&](const char* key,
                        const std::vector<std::string>& values) {
      if (values.empty()) return;
      request_text += std::string(key) + "=";
      for (std::size_t v = 0; v < values.size(); ++v) {
        if (v > 0) request_text += ',';
        request_text += values[v];
      }
      request_text += '\n';
    };
    add_list("objectives", objectives);
    add_list("routings", routings);
    add_list("bandwidths", bandwidths);
    add_list("areas", max_areas);
    add_list("searches", searches);
    add_list("restarts", restarts);
    add_list("swap_passes", swap_passes);
    if (config.include_extension_topologies) request_text += "extensions=1\n";
    if (threads != 1) {
      request_text += "threads=" + std::to_string(threads) + "\n";
    }
    try {
      const auto json = sweep::call_daemon(call_socket, request_text);
      if (!json_path.empty()) {
        io::write_file(json_path, json);
        std::cout << "wrote " << json_path << "\n";
      } else {
        std::cout << json;
      }
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  if (!sweep && (workers > 0 || shards > 0 || !checkpoint_path.empty() ||
                 resume || progress)) {
    std::cerr << "--workers/--shards/--checkpoint/--resume/--progress "
                 "require --sweep\n";
    return 2;
  }

  if (!sweep) {
    // Single-point mode: every axis flag must name exactly one value.
    if (objectives.size() > 1 || routings.size() > 1 ||
        bandwidths.size() > 1 || max_areas.size() > 1 ||
        searches.size() > 1 || restarts.size() > 1 ||
        swap_passes.size() > 1 || fplan_engines.size() > 1 ||
        fplan_sizing.size() > 1) {
      std::cerr << "value lists require --sweep\n";
      return 2;
    }
    if (!json_path.empty()) {
      std::cerr << "--json requires --sweep\n";
      return 2;
    }
    if (!objectives.empty()) {
      const auto objective = parse_objective(objectives.front());
      if (!objective) {
        std::cerr << "unknown objective " << objectives.front() << "\n";
        return 2;
      }
      config.mapper.objective = *objective;
    }
    if (!routings.empty()) {
      const auto kind = parse_routing(routings.front());
      if (!kind) {
        std::cerr << "unknown routing function " << routings.front() << "\n";
        return 2;
      }
      config.mapper.routing = *kind;
    }
    if (!searches.empty()) {
      const auto kind = parse_search(searches.front());
      if (!kind) {
        std::cerr << "unknown search strategy " << searches.front() << "\n";
        return 2;
      }
      config.mapper.search = *kind;
    }
    if (!fplan_engines.empty()) {
      const auto engine = parse_fplan_engine(fplan_engines.front());
      if (!engine) {
        std::cerr << "unknown floorplan engine " << fplan_engines.front()
                  << "\n";
        return 2;
      }
      config.mapper.floorplan.engine = *engine;
    }
    try {
      if (!bandwidths.empty()) {
        config.mapper.link_bandwidth_mbps = std::stod(bandwidths.front());
      }
      if (!max_areas.empty()) {
        config.mapper.max_area_mm2 = std::stod(max_areas.front());
      }
      if (!restarts.empty()) {
        config.mapper.annealing_restarts = std::stoi(restarts.front());
      }
      if (!swap_passes.empty()) {
        config.mapper.swap_passes = std::stoi(swap_passes.front());
      }
      if (!fplan_sizing.empty()) {
        config.mapper.floorplan.sizing_passes = std::stoi(fplan_sizing.front());
      }
    } catch (const std::exception&) {
      std::cerr << "bad numeric value\n";
      return 2;
    }
    if (!faults_text.empty()) {
      const auto spec =
          parse_fault_spec(faults_text, config.mapper.faults.spec);
      if (!spec) {
        std::cerr << "bad fault spec " << faults_text << " (try --help)\n";
        return 2;
      }
      config.mapper.faults.spec = *spec;
    }
    config.mapper.num_threads = threads;
  }

  // --sim-rank needs an analytical prefilter; when --sim-finalists was not
  // given (or left 0), default to re-ranking the 3 best cells per group.
  if (config.mapper.sim_rank && config.mapper.sim_finalists == 0) {
    config.mapper.sim_finalists = 3;
  }

  // Centralised configuration validation (MapperConfig::validate) replaces
  // per-flag checks: a bad combination surfaces as one clean CLI error.
  try {
    config.mapper.validate();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (sweep) {
    SweepArgs args;
    args.objectives = std::move(objectives);
    args.routings = std::move(routings);
    args.bandwidths = std::move(bandwidths);
    args.max_areas = std::move(max_areas);
    args.searches = std::move(searches);
    args.restarts = std::move(restarts);
    args.swap_passes = std::move(swap_passes);
    args.fplan_engines = std::move(fplan_engines);
    args.fplan_sizing = std::move(fplan_sizing);
    args.faults = std::move(faults_text);
    args.threads = threads;
    args.show_floorplan = show_floorplan;
    args.sim_validate = sim_validate;
    args.out_dir = config.output_directory;
    args.csv_path = csv_path;
    args.json_path = json_path;
    args.workers = workers;
    args.shards = shards;
    args.checkpoint_path = checkpoint_path;
    args.resume = resume;
    args.progress = progress;
    args.command_line = command_line;
    return run_sweep(*app, config, args);
  }

  std::cout << "SUNMAP: " << app->name() << " (" << app->num_cores()
            << " cores, " << app->total_bandwidth_mbps()
            << " MB/s) routing=" << route::to_string(config.mapper.routing)
            << " objective=" << mapping::to_string(config.mapper.objective)
            << " link=" << config.mapper.link_bandwidth_mbps << " MB/s";
  if (!config.mapper.faults.empty()) {
    std::cout << " faults=" << fault::describe(config.mapper.faults) << " ("
              << fault::to_string(config.mapper.faults.aggregation) << ")";
  }
  std::cout << "\n\n";

  // Invalid configurations that slip past validate() (e.g. an application
  // with more cores than any topology has slots) surface as
  // std::invalid_argument from the tool chain; report them as a clean CLI
  // error instead of an abort.
  std::optional<core::SunmapResult> run_result;
  try {
    const core::Sunmap tool(config);
    run_result = tool.run(*app);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const auto& result = *run_result;
  std::cout << core::Sunmap::report_table(result.report) << "\n";

  // Single-point finalist tier / model validation: simulate the n best
  // feasible candidates (--sim-validate lifts the cap) and print the
  // contention-aware delay next to the analytical zero-load number.
  if (sim_validate || config.mapper.sim_finalists > 0) {
    std::vector<const select::TopologyCandidate*> finalists;
    for (const auto& candidate : result.report.candidates) {
      if (candidate.feasible()) finalists.push_back(&candidate);
    }
    std::stable_sort(finalists.begin(), finalists.end(),
                     [](const select::TopologyCandidate* a,
                        const select::TopologyCandidate* b) {
                       return a->result.eval.cost < b->result.eval.cost;
                     });
    if (!sim_validate && finalists.size() > static_cast<std::size_t>(
                                                config.mapper.sim_finalists)) {
      finalists.resize(static_cast<std::size_t>(config.mapper.sim_finalists));
    }
    try {
      mapping::SimEvaluator evaluator(
          mapping::sim_tier_options(config.mapper));
      util::Table sims({"topology", "analytical (cyc)", "simulated (cyc)",
                        "model err", "status"});
      // --sim-rank: the finalist the simulator crowns, by (drained first,
      // simulated latency, analytical cost) — same ordering as sweep mode.
      const select::TopologyCandidate* sim_best = nullptr;
      mapping::SimScore sim_best_score;
      for (const auto* candidate : finalists) {
        const auto score =
            evaluator.score(*app, *candidate->topology, candidate->result);
        sims.add_row(
            {candidate->topology->name(),
             util::Table::num(score.analytical_latency_cycles),
             util::Table::num(score.simulated_latency_cycles),
             util::Table::num(score.model_error() * 100.0, 1) + "%",
             sim::to_string(score.stats.status)});
        const bool drained = score.stats.status == sim::RunStatus::kDrained;
        const bool best_drained =
            sim_best != nullptr &&
            sim_best_score.stats.status == sim::RunStatus::kDrained;
        if (sim_best == nullptr ||
            (drained != best_drained
                 ? drained
                 : score.simulated_latency_cycles <
                       sim_best_score.simulated_latency_cycles)) {
          sim_best = candidate;
          sim_best_score = score;
        }
      }
      std::cout << "Flit-level validation ("
                << sim::to_string(evaluator.options().config.engine)
                << " engine):\n"
                << sims.to_string() << "\n";
      if (config.mapper.sim_rank && sim_best != nullptr) {
        std::cout << "Simulated-delay winner: " << sim_best->topology->name()
                  << " ("
                  << util::Table::num(
                         sim_best_score.simulated_latency_cycles)
                  << " cycles simulated)\n\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  if (!csv_path.empty()) {
    io::write_file(csv_path, io::selection_report_csv(result.report));
    std::cout << "wrote " << csv_path << "\n";
  }

  const auto* best = result.best();
  if (best == nullptr) {
    std::cout << "No feasible mapping for any topology in the library.\n";
    return 1;
  }
  std::cout << "Selected: " << best->topology->name() << "\n\n"
            << result.netlist->summary();

  if (show_floorplan) {
    const auto& slot_to_core = best->result.slot_to_core;
    std::cout << "\n"
              << fplan::render_ascii(
                     best->result.eval.floorplan,
                     [&](const fplan::PlacedBlock& block) {
                       if (block.kind == fplan::PlacedBlock::Kind::kSwitch) {
                         return "S" + std::to_string(block.index);
                       }
                       const int core = slot_to_core[
                           static_cast<std::size_t>(block.index)];
                       return core >= 0 ? app->core(core).name
                                        : std::string("-");
                     });
  }
  for (const auto& file : result.written_files) {
    std::cout << "wrote " << file << "\n";
  }
  return 0;
}
