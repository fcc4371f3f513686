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
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/sunmap.h"
#include "fault/fault.h"
#include "fplan/render.h"
#include "io/core_graph_io.h"
#include "io/csv.h"
#include "io/exploration_io.h"
#include "io/request_codec.h"
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
  --fault-samples <n> random scenarios drawn by --faults rand (default 4;
                      refused without a rand set)
  --fault-seed <s>    seed of the --faults rand sampler (default 1;
                      refused without a rand set)
  --fault-mode <m>    worst (max over fault-free + degraded costs,
                      default) | weighted (mean of the fault-free and
                      every degraded cost)
  --fault-penalty <x> fault-free-cost multiplier charged when a scenario
                      disconnects a commodity; must be >= 1 (default 10)
  --bandwidth <MBps>  link capacity               (default 500)
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
  --sim-seed <s>      simulator PRNG seed, decoupled from the mapping
                      search's seed; must be >= 1 (default 1)
  --sim-traffic <t>   finalist-tier traffic model: trace (the mapped
                      commodity rates, default) | bursty (per-flow on/off
                      modulation of the same rates; equal long-run load)
  --sim-burst-len <c> mean burst length in cycles of --sim-traffic bursty
                      (default 50)
  --sim-burst-duty <d> duty cycle in (0,1) of --sim-traffic bursty
                      (default 0.3)
  --threads <n>       threads that map topologies in parallel, one
                      topology per thread, each searched sequentially;
                      they also size the finalist tier's simulation pool
                      (1..256, default 1; any n returns the identical
                      report)
  --max-area <mm2>    area constraint             (default unlimited)
  --extensions        include octagon/star topologies
  --floorplan         print the winning floorplan as ASCII
  --csv <path>        write the comparison table as CSV
  --out <dir>         write generated SystemC sources here
  --sweep             batched design-space exploration: --routing,
                      --objective, --bandwidth, --max-area, --search,
                      --restarts, --swap-passes, --fplan-engine,
                      --fplan-sizing-passes, and --faults accept
                      comma-separated lists (--faults: named specs
                      none/n1/rand[M]; an explicit scenario list is one
                      fault set) and the whole cross product is explored
                      with one evaluation context per topology;
                      prints the comparison matrix, per-objective winners,
                      and the area/power Pareto frontier. --floorplan then
                      renders each objective winner's floorplan and --out
                      writes each winner's generated sources to
                      <dir>/<objective>/
  --json <path>       write the exploration report as JSON (sweep only)

Distributed sweeps (with --sweep; see README "Distributed sweeps"):
  --workers <n>       distribute the sweep across n worker processes, one
                      objective run of the grid at a time; the merged
                      report is bit-identical to the single-process
                      explorer at any worker count
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
                      it (1..256, default 1)
  --call <socket>     submit THIS command line's request flags to a running
                      daemon and print the JSON reply; --file, --csv,
                      --floorplan, --out and the distributed flags are refused
  --help              this text
)";
}

void handle_sigint(int) { sweep::request_stop(); }

/// The options of this process: every flag that is not a request flag.
struct LocalOptions {
  std::string file_path;
  bool sweep = false;
  bool show_floorplan = false;
  std::string out_dir;
  std::string csv_path;
  std::string json_path;
  /// Distributed-sweep options (--workers/--checkpoint/--resume/
  /// --progress). workers == 0 and an empty checkpoint keep the sweep
  /// in-process.
  int workers = 0;
  std::string checkpoint_path;
  bool resume = false;
  bool progress = false;
  std::string serve_socket;
  int serve_requests = -1;
  int serve_threads = 1;
  std::string call_socket;
  /// Every local flag given, for the flags --call rejects.
  std::set<std::string> given;
  /// The invoking command line, for the "resume with: ..." hint printed
  /// after an interrupted checkpointed sweep.
  std::string command_line;
};

/// ASCII floorplan of a mapped candidate, its cores labelled by name.
std::string floorplan_ascii(const mapping::CoreGraph& app,
                            const select::TopologyCandidate& candidate) {
  const auto& slot_to_core = candidate.result.slot_to_core;
  return fplan::render_ascii(
      candidate.result.eval.floorplan, [&](const fplan::PlacedBlock& block) {
        if (block.kind == fplan::PlacedBlock::Kind::kSwitch) {
          return "S" + std::to_string(block.index);
        }
        const int core = slot_to_core[static_cast<std::size_t>(block.index)];
        return core >= 0 ? app.core(core).name : std::string("-");
      });
}

/// Writes the generated network sources into `dir`, naming each file.
void write_sources(const gen::Netlist& netlist, const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& file : gen::SystemCWriter().write_to(netlist, dir)) {
    std::cout << "wrote " << file << "\n";
  }
}

int run_sweep(select::ExplorationRequest& request, bool extensions,
              const LocalOptions& args) {
  const mapping::CoreGraph& app = *request.app;
  const auto library = topo::standard_library(app.num_cores(), extensions);
  request.library = &library;

  const bool distributed = args.workers > 0 || !args.checkpoint_path.empty();
  std::optional<select::ExplorationReport> report;
  if (distributed) {
    sweep::SweepOptions options;
    options.num_workers = std::max(1, args.workers);
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
              << sim::to_string(
                     mapping::sim_tier_options(request.base).config.engine)
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
    const std::string tag = mapping::to_string(best.objective);
    if (args.show_floorplan) {
      std::cout << "Floorplan of the " << tag << " winner ("
                << candidate.topology->name() << ", "
                << result.point.label() << "):\n"
                << floorplan_ascii(app, candidate) << "\n";
    }
    if (!args.out_dir.empty()) {
      write_sources(gen::Netlist::build(*candidate.topology, app,
                                        candidate.result.core_to_slot,
                                        &candidate.result.eval.floorplan),
                    (std::filesystem::path(args.out_dir) / tag).string());
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

/// A request flag and the request key it sets (io/request_codec.h); a
/// switch sets its key to 1.
struct RequestFlag {
  const char* flag;
  const char* key;
  bool is_switch = false;
};

constexpr RequestFlag kRequestFlags[] = {
    {"--app", "app"},
    {"--extensions", "extensions", true},
    {"--objective", "objectives"},
    {"--routing", "routings"},
    {"--bandwidth", "bandwidths"},
    {"--max-area", "areas"},
    {"--search", "searches"},
    {"--restarts", "restarts"},
    {"--swap-passes", "swap_passes"},
    {"--threads", "threads"},
    {"--reheat", "reheat"},
    {"--fplan-engine", "fplan_engine"},
    {"--fplan-sizing-passes", "fplan_sizing_passes"},
    {"--faults", "faults"},
    {"--fault-samples", "fault_samples"},
    {"--fault-seed", "fault_seed"},
    {"--fault-mode", "fault_mode"},
    {"--fault-penalty", "fault_penalty"},
    {"--w-delay", "w_delay"},
    {"--w-area", "w_area"},
    {"--w-power", "w_power"},
    {"--sim-finalists", "sim_finalists"},
    {"--sim-validate", "sim_validate", true},
    {"--sim-rank", "sim_rank", true},
    {"--sim-seed", "sim_seed"},
    {"--sim-traffic", "sim_traffic"},
    {"--sim-burst-len", "sim_burst_len"},
    {"--sim-burst-duty", "sim_burst_duty"},
};

/// The flags --call cannot honour: the daemon reads no local files and
/// answers with its JSON report only.
constexpr const char* kLocalOnlyFlags[] = {
    "--file",     "--workers", "--checkpoint", "--resume",
    "--progress", "--csv",     "--floorplan",  "--out"};

int run(int argc, char** argv) {
  std::string request_text;
  LocalOptions local;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) local.command_line += ' ';
    local.command_line += argv[i];
  }

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      std::exit(2);
    }
    return argv[++i];
  };

  // Request flags become the request text's key=value lines; the rest are
  // options of this process.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto* request_flag = std::find_if(
        std::begin(kRequestFlags), std::end(kRequestFlags),
        [&](const RequestFlag& flag) { return arg == flag.flag; });
    if (request_flag != std::end(kRequestFlags)) {
      const std::string value =
          request_flag->is_switch ? "1" : need_value(i);
      if (value.find('\n') != std::string::npos) {
        throw std::invalid_argument(arg + " value contains a newline");
      }
      request_text += std::string(request_flag->key) + "=" + value + "\n";
      continue;
    }
    local.given.insert(arg);
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--file") {
      local.file_path = need_value(i);
    } else if (arg == "--sweep") {
      local.sweep = true;
    } else if (arg == "--workers") {
      local.workers = io::parse_int(arg, need_value(i));
    } else if (arg == "--checkpoint") {
      local.checkpoint_path = need_value(i);
    } else if (arg == "--resume") {
      local.resume = true;
    } else if (arg == "--progress") {
      local.progress = true;
    } else if (arg == "--serve") {
      local.serve_socket = need_value(i);
    } else if (arg == "--serve-requests") {
      local.serve_requests = io::parse_int(arg, need_value(i));
    } else if (arg == "--serve-threads") {
      local.serve_threads = io::parse_int(arg, need_value(i));
    } else if (arg == "--call") {
      local.call_socket = need_value(i);
    } else if (arg == "--floorplan") {
      local.show_floorplan = true;
    } else if (arg == "--csv") {
      local.csv_path = need_value(i);
    } else if (arg == "--json") {
      local.json_path = need_value(i);
    } else if (arg == "--out") {
      local.out_dir = need_value(i);
    } else {
      std::cerr << "unknown argument " << arg << " (try --help)\n";
      return 2;
    }
  }

  // Daemon mode: no local evaluation at all — serve sweep requests over
  // the socket until SIGINT (or the request budget) stops the loop.
  if (!local.serve_socket.empty()) {
    sweep::reset_stop();
    std::signal(SIGINT, handle_sigint);
    sweep::DaemonOptions options;
    options.socket_path = local.serve_socket;
    options.max_requests = local.serve_requests;
    options.accept_threads = local.serve_threads;
    options.verbose = true;
    const auto stats = sweep::serve(options);
    std::cout << "served " << stats.requests_served << " request(s), "
              << stats.requests_failed << " failed\n";
    return 0;
  }

  // Every mode takes the one decoded request: --call sends its canonical
  // text, sweep mode explores it, and single-point mode explores its one
  // design point.
  const bool calling = !local.call_socket.empty();
  auto decoded = io::decode_request(request_text);
  for (const std::string flag : kLocalOnlyFlags) {
    if (calling && local.given.count(flag) != 0) {
      throw std::invalid_argument("--call cannot honour " + flag +
                                  " (the daemon returns only the report)");
    }
  }
  if (!decoded.app.empty() && !local.file_path.empty()) {
    throw std::invalid_argument("--app and --file both name the application");
  }
  auto app = local.file_path.empty()
                 ? apps::by_name(decoded.app)
                 : std::optional(io::read_core_graph_file(local.file_path));
  if (!app && !decoded.app.empty()) {
    std::cerr << "unknown built-in app " << decoded.app << "\n";
    return 2;
  }
  if (!app) {
    usage();
    return 2;
  }
  if (!local.sweep &&
      (local.workers > 0 || !local.checkpoint_path.empty() || local.resume ||
       local.progress)) {
    std::cerr << "--workers/--checkpoint/--resume/--progress require "
                 "--sweep\n";
    return 2;
  }
  select::ExplorationRequest& request = decoded.request;
  // In single-point mode every axis flag names one value.
  const bool single_point = !local.sweep && !calling;
  const auto points = select::DesignSpaceExplorer::expand(request);
  if (single_point && points.size() > 1) {
    std::cerr << "value lists require --sweep\n";
    return 2;
  }
  if (single_point && !local.json_path.empty()) {
    std::cerr << "--json requires --sweep\n";
    return 2;
  }
  // Centralised configuration validation (MapperConfig::validate) replaces
  // per-flag checks: a bad value surfaces as one clean CLI error.
  for (const auto& point : points) point.config.validate();

  // Client mode: submit the request to a daemon and print the JSON report
  // it returns.
  if (calling) {
    const auto json =
        sweep::call_daemon(local.call_socket, io::encode_request(decoded));
    if (!local.json_path.empty()) {
      io::write_file(local.json_path, json);
      std::cout << "wrote " << local.json_path << "\n";
    } else {
      std::cout << json;
    }
    return 0;
  }

  request.app = &*app;
  if (local.sweep) return run_sweep(request, decoded.extensions, local);

  const auto& config = points.front().config;
  std::cout << "SUNMAP: " << app->name() << " (" << app->num_cores()
            << " cores, " << app->total_bandwidth_mbps()
            << " MB/s) routing=" << route::to_string(config.routing)
            << " objective=" << mapping::to_string(config.objective)
            << " link=" << config.link_bandwidth_mbps << " MB/s";
  if (!config.faults.empty()) {
    std::cout << " faults=" << fault::describe(config.faults) << " ("
              << fault::to_string(config.faults.aggregation) << ")";
  }
  std::cout << "\n\n";

  const auto library =
      topo::standard_library(app->num_cores(), decoded.extensions);
  request.library = &library;
  const auto report = select::DesignSpaceExplorer().explore(request);
  const auto& selection = report.results.front().selection;
  std::cout << core::Sunmap::report_table(selection) << "\n";

  // The finalist tier (--sim-finalists, --sim-validate): the simulated,
  // contention-aware delay of each finalist next to the analytical
  // zero-load number, cheapest finalist first; --sim-rank adds the
  // finalist the simulator crowns.
  if (request.sim_finalists > 0) {
    std::vector<const select::TopologyCandidate*> finalists;
    for (const auto& candidate : selection.candidates) {
      if (candidate.sim.has_value()) finalists.push_back(&candidate);
    }
    std::ranges::stable_sort(finalists, {}, [](const auto* candidate) {
      return candidate->result.eval.cost;
    });
    util::Table sims({"topology", "analytical (cyc)", "simulated (cyc)",
                      "model err", "status"});
    for (const auto* candidate : finalists) {
      const auto& score = *candidate->sim;
      sims.add_row({candidate->topology->name(),
                    util::Table::num(score.analytical_latency_cycles),
                    util::Table::num(score.simulated_latency_cycles),
                    util::Table::num(score.model_error() * 100.0, 1) + "%",
                    sim::to_string(score.stats.status)});
    }
    std::cout << "Flit-level validation ("
              << sim::to_string(mapping::sim_tier_options(config).config.engine)
              << " engine):\n"
              << sims.to_string() << "\n";
    if (request.sim_rank && report.sim_winners.front().found()) {
      const auto& winner = selection.candidates[static_cast<std::size_t>(
          report.sim_winners.front().topology_index)];
      std::cout << "Simulated-delay winner: " << winner.topology->name()
                << " ("
                << util::Table::num(winner.sim->simulated_latency_cycles)
                << " cycles simulated)\n\n";
    }
  }

  if (!local.csv_path.empty()) {
    io::write_file(local.csv_path, io::selection_report_csv(selection));
    std::cout << "wrote " << local.csv_path << "\n";
  }

  const auto* best = selection.best();
  if (best == nullptr) {
    std::cout << "No feasible mapping for any topology in the library.\n";
    return 1;
  }
  const auto netlist =
      gen::Netlist::build(*best->topology, *app, best->result.core_to_slot,
                          &best->result.eval.floorplan);
  std::cout << "Selected: " << best->topology->name() << "\n\n"
            << netlist.summary();
  if (local.show_floorplan) std::cout << "\n" << floorplan_ascii(*app, *best);
  if (!local.out_dir.empty()) write_sources(netlist, local.out_dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every failure surfaces as one clean CLI error instead of an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
