// End-to-end benchmark program for the SUNMAP library.
//
//   sunbench --workload grid|robust|serve --seed N --seconds S
//            --trace 0|1 [--pinned FILE] [--work-dir DIR]
//
// Every workload is one caller in a closed loop on one thread, driving the
// library only through its public entry points: DesignSpaceExplorer::explore
// plus io::exploration_report_json (what `sunmap_cli --sweep --json` and the
// daemon run), and sweep::serve / sweep::call_daemon.
//
// Untraced runs (--trace 0) time whole passes and print the end-to-end
// metrics. Traced runs (--trace 1) replay each pass through the public calls
// explore() itself makes (EvalContext construction, rebind, Mapper::map,
// the finalist tier, the JSON report), record a span around every call, and
// print per-layer metrics. Spans live in memory and are written to
// <work-dir>/trace-<workload>-<seed>.json when the run ends.
//
// The last stdout line is the result object: correct, attempted, failed and
// metrics. A line before it carries the run's provenance and the output
// digests.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/apps.h"
#include "fault/fault.h"
#include "fplan/floorplanner.h"
#include "io/exploration_io.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "model/library.h"
#include "route/routing.h"
#include "route/routing_session.h"
#include "select/explorer.h"
#include "sweep/coordinator.h"
#include "sweep/daemon.h"
#include "topo/library.h"

namespace {

using namespace sunmap;
using Clock = std::chrono::steady_clock;
using Library = std::vector<std::unique_ptr<topo::Topology>>;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent's peak from before exec().
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// The CPUs this thread may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Binds this thread, and every thread it starts afterwards, to `cpu`.
void bind_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

// A fixed kernel that shares no code with SUNMAP, timed beside every pass so
// host-throughput drift can be told apart from a change in the program.
volatile double g_reference_sink = 0.0;
double host_reference_ms() {
  static std::vector<std::uint32_t> table(1U << 16);
  const auto start = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < 300000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 0xFFFFU] += static_cast<std::uint32_t>(i);
    acc += std::sqrt(static_cast<double>(x & 0xFFFFFU));
  }
  g_reference_sink = acc + table[x & 0xFFFFU];
  return ms_since(start);
}

// ------------------------------------------------------------- metrics --

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ------------------------------------------------------------- tracing --

/// One recorded call into a layer: name, start/end, the span that caused it
/// and the request (application or daemon request) it served.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  int request = -1;
  int pass = 0;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int request)
        : tracer_(tracer), index_(tracer.begin(name, request)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  int begin(const char* name, int request) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.pass = pass_;
    span.start = Clock::now();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
  }
  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
    stack_.pop_back();
  }
  void set_pass(int pass) { pass_ = pass; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Total and self time (ms) per span name over spans [from, spans().size()).
  /// Self time is a span's duration minus the part its child spans cover.
  void totals(std::size_t from, std::map<std::string, double>& total,
              std::map<std::string, double>& self) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const double ms = duration_ms(spans_[i]);
      total[spans_[i].name] += ms;
      const int parent = spans_[i].parent;
      if (parent >= static_cast<int>(from)) {
        child[static_cast<std::size_t>(parent)] += ms;
      }
    }
    for (std::size_t i = from; i < spans_.size(); ++i) {
      self[spans_[i].name] += duration_ms(spans_[i]) - child[i];
    }
  }

  static double duration_ms(const Span& span) {
    return std::chrono::duration<double, std::milli>(span.end - span.start)
        .count();
  }

  void write(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& span = spans_[i];
      const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
      };
      out << "{\"id\":" << i << ",\"name\":" << json_string(span.name)
          << ",\"start_us\":" << json_number(us(span.start))
          << ",\"end_us\":" << json_number(us(span.end))
          << ",\"parent\":" << span.parent << ",\"request\":" << span.request
          << ",\"pass\":" << span.pass << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int pass_ = 0;
};

// ----------------------------------------------------------- workloads --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pinned_path;
  std::string work_dir = ".";
};

struct App {
  std::string key;  // digest key: the app's name
  std::unique_ptr<mapping::CoreGraph> graph;
  std::unique_ptr<Library> library;
};

/// Everything one sweep pass explores: the apps, their libraries, and one
/// request per app over a benchmark-owned context pool.
struct Fixture {
  std::vector<App> apps;
  std::vector<std::unique_ptr<select::ExplorerContextPool>> pools;
  std::vector<select::ExplorationRequest> requests;
};

const char* const kBuiltinApps[] = {"vopd", "mpeg4", "dsp",
                                     "netproc16", "pip", "mwd"};

mapping::CoreGraph builtin_app(const std::string& name) {
  if (name == "vopd") return apps::vopd();
  if (name == "mpeg4") return apps::mpeg4();
  if (name == "dsp") return apps::dsp_filter();
  if (name == "netproc16") return apps::netproc16();
  if (name == "pip") return apps::pip();
  if (name == "mwd") return apps::mwd();
  throw std::invalid_argument("unknown app " + name);
}

select::ExplorationRequest base_request(const std::string& workload,
                                        std::uint64_t seed) {
  using mapping::Objective;
  using route::RoutingKind;
  select::ExplorationRequest request;
  request.objectives = {Objective::kMinDelay, Objective::kMinArea,
                        Objective::kMinPower};
  if (workload == "grid") {
    request.routings = {RoutingKind::kDimensionOrdered, RoutingKind::kMinPath,
                        RoutingKind::kSplitMin, RoutingKind::kSplitAll};
  } else {  // robust
    request.routings = {RoutingKind::kDimensionOrdered, RoutingKind::kMinPath,
                        RoutingKind::kSplitMin};
    fault::FaultSet faults;
    faults.spec.kind = fault::FaultSpec::Kind::kEveryLink;
    faults.aggregation = fault::Aggregation::kWorstCase;
    request.fault_sets = {faults};
    // --sim-validate --sim-rank --sim-traffic bursty --sim-seed <seed>
    request.sim_finalists = std::numeric_limits<int>::max();
    request.sim_rank = true;
    request.base.sim_traffic = mapping::SimTraffic::kBursty;
    request.base.sim_seed = seed;
  }
  return request;
}

/// One application of a workload, generated from the seed before anything
/// is timed: a built-in app by name, or the synthetic graph by its spec.
struct AppInput {
  std::string key;  // app name; also the output digest key
  std::optional<apps::SyntheticSpec> synthetic;
};

std::vector<AppInput> make_inputs(const std::string& workload,
                                  std::uint64_t seed) {
  std::vector<AppInput> inputs;
  for (const char* name : kBuiltinApps) inputs.push_back({name, std::nullopt});
  if (workload == "grid") {
    // The seed picks which cores talk; the flow count is held fixed so that
    // every seed asks for about the same amount of routing work, and small
    // enough that the graph never becomes the pass's median request.
    constexpr int kSyntheticFlows = 10;
    apps::SyntheticSpec spec;
    spec.num_cores = 10;
    spec.edge_density = 0.1;
    spec.seed = seed;
    for (std::uint64_t k = 1;
         apps::synthetic(spec).num_flows() != kSyntheticFlows; ++k) {
      spec.seed = seed * 1000003ULL + k;
    }
    inputs.push_back({"synthetic10", spec});
  }
  return inputs;
}

/// Builds the apps, their topology libraries, and one EvalContext per
/// topology at each request's first design point — the state explore()
/// would otherwise build inside the timed pass. This is the set-up work.
Fixture make_fixture(const std::string& workload, std::uint64_t seed,
                     const std::vector<AppInput>& inputs) {
  Fixture fixture;
  for (const auto& input : inputs) {
    App app;
    app.key = input.key;
    app.graph = std::make_unique<mapping::CoreGraph>(
        input.synthetic ? apps::synthetic(*input.synthetic)
                        : builtin_app(input.key));
    app.library = std::make_unique<Library>(
        topo::standard_library(app.graph->num_cores()));
    auto pool = std::make_unique<select::ExplorerContextPool>();
    select::ExplorationRequest request = base_request(workload, seed);
    request.app = app.graph.get();
    request.library = app.library.get();
    request.context_pool = pool.get();
    const auto points = select::DesignSpaceExplorer::expand(request);
    const mapping::Mapper mapper(points.front().config);
    for (const auto& topology : *app.library) {
      pool->contexts.push_back(std::make_unique<mapping::EvalContext>(
          *app.graph, *topology, points.front().config, mapper.library()));
    }
    pool->scratches.resize(app.library->size());
    fixture.apps.push_back(std::move(app));
    fixture.pools.push_back(std::move(pool));
    fixture.requests.push_back(std::move(request));
  }
  return fixture;
}

// ------------------------------------------------------ output checking --

/// Compares every output with the pinned digest (default seed) and with the
/// first output under the same key (any seed). A mismatch is a failed
/// operation.
class OutputChecker {
 public:
  OutputChecker(const Options& options, const std::string& workload) {
    if (options.seed != 1 || options.pinned_path.empty()) return;
    std::ifstream in(options.pinned_path);
    if (!in) throw std::runtime_error("cannot read " + options.pinned_path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string w, key, digest;
      if (!(fields >> w >> key >> digest) || w[0] == '#') continue;
      if (w == workload) pinned_[key] = digest;
    }
    if (pinned_.empty()) {
      throw std::runtime_error("no pinned digests for workload " + workload);
    }
  }

  /// True when `text` matches every reference held for `key`.
  bool check(const std::string& key, const std::string& text) {
    const std::string digest = fnv1a_hex(text);
    bool ok = true;
    const auto first = first_.try_emplace(key, digest).first;
    if (first->second != digest) ok = false;
    if (!pinned_.empty()) {
      const auto pinned = pinned_.find(key);
      if (pinned == pinned_.end() || pinned->second != digest) ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "sunbench: output mismatch for %s (digest %s)\n",
                   key.c_str(), digest.c_str());
    }
    return ok;
  }

  [[nodiscard]] const std::map<std::string, std::string>& digests() const {
    return first_;
  }

 private:
  std::map<std::string, std::string> pinned_;
  std::map<std::string, std::string> first_;
};

struct RunState {
  long attempted = 0;
  long failed = 0;
  int passes = 0;
  std::vector<double> host_ref_ms;
};

// --------------------------------------------------- traced explore replay --

/// Layer counters read from public accessors while replaying.
struct Counters {
  double cells = 0, evaluated = 0, pruned = 0;
  double route_solves = 0, route_full = 0, route_steps = 0, route_reused = 0;
  double fplan_solves = 0, fplan_full = 0, fplan_incremental = 0;
  double metrics_hits = 0, metrics_lookups = 0, fplan_hits = 0,
         fplan_lookups = 0;
  double fault_scenarios = 0, fault_degraded = 0, fault_outcomes = 0,
         fault_disconnected = 0;
  double sim_runs = 0, sim_events = 0, sim_cycles = 0, sim_undrained = 0;
  double report_bytes = 0;
  std::vector<double> map_ms;  // per cell
  /// Map time per routing function, one entry per traced pass.
  std::map<std::string, std::vector<double>> map_ms_by_routing;
  void begin_pass() {
    for (const char* kind : {"DO", "MP", "SM", "SA"}) {
      map_ms_by_routing[kind].push_back(0.0);
    }
  }
};

/// Session statistics live in the scratches; the routing session keeps its
/// counters across rebinds, a floorplan session is replaced when it is
/// rebuilt. Deltas per session fold both into running sums. A session is
/// keyed by its address plus the context id (and, for floorplans, the
/// epoch) it was built for, since a new session may reuse a freed address.
class SessionWatch {
 public:
  void sample(const mapping::EvalScratch& scratch, Counters& counters) {
    visit(scratch, counters);
    for (const auto& worker : scratch.worker_pool) {
      if (worker) visit(*worker, counters);
    }
  }

 private:
  void visit(const mapping::EvalScratch& scratch, Counters& counters) {
    if (scratch.routing_session) {
      const auto& now = scratch.routing_session->stats();
      auto& last = route_[{scratch.routing_session.get(),
                           scratch.routing_session_context, 0}];
      if (now.solves < last.solves || now.full_solves < last.full_solves ||
          now.rerouted < last.rerouted || now.reused < last.reused) {
        last = {};
      }
      counters.route_solves += static_cast<double>(now.solves - last.solves);
      counters.route_full +=
          static_cast<double>(now.full_solves - last.full_solves);
      counters.route_steps += static_cast<double>(now.rerouted - last.rerouted);
      counters.route_reused += static_cast<double>(now.reused - last.reused);
      last = now;
    }
    if (scratch.fplan_session) {
      const auto& now = scratch.fplan_session->stats();
      auto& last = fplan_[{scratch.fplan_session.get(),
                           scratch.fplan_session_context,
                           scratch.fplan_session_epoch}];
      if (now.solves < last.solves || now.full_solves < last.full_solves ||
          now.incremental_solves < last.incremental_solves) {
        last = {};
      }
      counters.fplan_solves += static_cast<double>(now.solves - last.solves);
      counters.fplan_full +=
          static_cast<double>(now.full_solves - last.full_solves);
      counters.fplan_incremental += static_cast<double>(
          now.incremental_solves - last.incremental_solves);
      last = now;
    }
  }

  using Key = std::tuple<const void*, std::uint64_t, std::uint64_t>;
  std::map<Key, route::RoutingSession::Stats> route_;
  std::map<Key, fplan::FloorplanSession::Stats> fplan_;
};

/// explore()'s buffered single-thread loop, call for call, with a span
/// around each call into a layer: per topology, build the EvalContext (or
/// rebind a pooled one), then per design point rebind and Mapper::map; then
/// winners and Pareto frontier, and the finalist simulation tier.
select::ExplorationReport replay_explore(const select::ExplorationRequest& request,
                                         select::ExplorerContextPool& pool,
                                         Tracer& tracer, int rid,
                                         Counters& counters,
                                         SessionWatch& watch) {
  const auto& app = *request.app;
  const auto& library = *request.library;
  std::vector<select::DesignPoint> points;
  std::optional<mapping::Mapper> mapper;
  select::ExplorationReport report;
  {
    Tracer::Scope span(tracer, "select.prepare", rid);
    points = select::DesignSpaceExplorer::expand(request);
    for (const auto& point : points) point.config.validate();
    pool.contexts.resize(library.size());
    pool.scratches.resize(library.size());
    mapper.emplace(points.front().config);
    report.results.resize(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      report.results[p].point = points[p];
      report.results[p].selection.candidates.resize(library.size());
      for (std::size_t t = 0; t < library.size(); ++t) {
        report.results[p].selection.candidates[t].topology = library[t].get();
      }
    }
  }
  for (std::size_t t = 0; t < library.size(); ++t) {
    if (pool.contexts[t] == nullptr) {
      Tracer::Scope span(tracer, "mapping.context_build", rid);
      pool.contexts[t] = std::make_unique<mapping::EvalContext>(
          app, *library[t], points.front().config, mapper->library());
    } else {
      Tracer::Scope span(tracer, "mapping.rebind", rid);
      pool.contexts[t]->rebind(points.front().config, mapper->library());
    }
    mapping::EvalContext& ctx = *pool.contexts[t];
    mapping::EvalScratch& scratch = pool.scratches[t];
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (p > 0) {
        Tracer::Scope span(tracer, "mapping.rebind", rid);
        ctx.rebind(points[p].config, mapper->library());
      }
      auto& result = report.results[p].selection.candidates[t].result;
      const auto start = Clock::now();
      {
        Tracer::Scope span(tracer, "mapping.map", rid);
        result = mapper->map(ctx, scratch);
      }
      const double ms = ms_since(start);
      counters.map_ms.push_back(ms);
      counters.map_ms_by_routing[route::to_string(points[p].config.routing)]
          .back() += ms;
      counters.cells += 1;
      counters.evaluated += result.evaluated_mappings;
      counters.pruned += result.pruned_mappings;
      watch.sample(scratch, counters);
    }
  }

  {
    Tracer::Scope span(tracer, "select.finalize", rid);
    select::WinnerTracker tracker(request);
    std::vector<std::pair<double, double>> area_power;
    for (std::size_t p = 0; p < report.results.size(); ++p) {
      auto& result = report.results[p];
      result.selection.best_index =
          select::best_feasible_index(result.selection.candidates);
      tracker.consider(result, static_cast<int>(p));
      for (const auto& candidate : result.selection.candidates) {
        if (!candidate.feasible()) continue;
        area_power.emplace_back(candidate.result.eval.design_area_mm2,
                                candidate.result.eval.design_power_mw);
      }
    }
    report.winners = tracker.take();
    report.pareto = select::pareto_frontier(area_power);
  }
  if (request.sim_finalists > 0) {
    Tracer::Scope span(tracer, "sim.tier", rid);
    select::simulate_finalists(request, report);
    if (request.sim_rank) {
      report.sim_winners = select::rank_sim_winners(request, report);
    }
  }
  return report;
}

void count_outcomes(const select::ExplorationRequest& request,
                    const select::ExplorationReport& report,
                    Counters& counters) {
  std::map<const topo::Topology*, double> scenarios;
  if (!request.fault_sets.empty()) {
    for (const auto& topology : *request.library) {
      const double n = static_cast<double>(
          fault::materialize(request.fault_sets.front().spec, *topology)
              .size());
      scenarios[topology.get()] = n;
      counters.fault_scenarios += n;
    }
  }
  for (const auto& result : report.results) {
    for (const auto& candidate : result.selection.candidates) {
      const auto& eval = candidate.result.eval;
      counters.fault_outcomes += static_cast<double>(eval.fault_outcomes.size());
      counters.fault_disconnected += eval.infeasible_fault_scenarios;
      counters.fault_degraded +=
          (candidate.result.evaluated_mappings -
           candidate.result.pruned_mappings) *
          scenarios[candidate.topology];
      if (candidate.sim) {
        counters.sim_runs += 1;
        counters.sim_events +=
            static_cast<double>(candidate.sim->stats.flit_events);
        counters.sim_cycles += static_cast<double>(candidate.sim->stats.cycles);
        if (candidate.sim->stats.status != sim::RunStatus::kDrained) {
          counters.sim_undrained += 1;
        }
      }
    }
  }
}

/// One-shot replays on each design point's winning mapping, run after the
/// traced pass and outside its spans: a from-scratch RoutingSession::solve
/// per adaptive routing kind, a Floorplanner::place, and the per-scenario
/// fault tables (materialize, make_mask, masked_bfs per ingress switch).
struct WinnerReplay {
  std::vector<double> solve_sa_ms, solve_mp_ms, place_ms;
  double fault_tables_ms = 0.0;
};

void replay_winners(const select::ExplorationRequest& request,
                    const select::ExplorationReport& report,
                    WinnerReplay& out) {
  const auto& app = *request.app;
  const auto commodities = mapping::commodities_by_value(app);
  for (const auto& result : report.results) {
    const auto* best = result.selection.best();
    if (best == nullptr) continue;
    const auto& config = result.point.config;
    const auto& topology = *best->topology;
    const auto& core_to_slot = best->result.core_to_slot;

    const auto kind = config.routing;
    if (kind == route::RoutingKind::kSplitAll ||
        kind == route::RoutingKind::kMinPath) {
      route::RoutingEngine::Options engine_options;
      engine_options.split_chunks = config.split_chunks;
      engine_options.capacity_hint_mbps = config.link_bandwidth_mbps;
      const route::RoutingEngine engine(topology, kind, engine_options);
      std::vector<double> demands;
      std::vector<route::CommodityEndpoints> endpoints;
      for (const auto& commodity : commodities) {
        demands.push_back(commodity.value_mbps);
        endpoints.push_back(
            {core_to_slot[static_cast<std::size_t>(commodity.src_core)],
             core_to_slot[static_cast<std::size_t>(commodity.dst_core)]});
      }
      route::LoadMap loads(topology.switch_graph().num_edges());
      const auto start = Clock::now();
      route::RoutingSession session;
      session.reset(std::move(demands), config.reroute_passes);
      session.solve(engine, endpoints, loads, /*speculative=*/false);
      (kind == route::RoutingKind::kSplitAll ? out.solve_sa_ms
                                             : out.solve_mp_ms)
          .push_back(ms_since(start));
    }

    const mapping::Mapper mapper(config);
    std::vector<std::pair<int, int>> ports;
    for (graph::NodeId sw = 0; sw < topology.num_switches(); ++sw) {
      ports.emplace_back(topology.switch_in_ports(sw),
                         topology.switch_out_ports(sw));
    }
    const model::ResolvedSwitchTable table(mapper.library(), ports);
    std::vector<fplan::BlockShape> switch_shapes;
    for (graph::NodeId sw = 0; sw < topology.num_switches(); ++sw) {
      auto shape = fplan::BlockShape::soft_block(table.entry(sw).area_mm2);
      shape.min_aspect = 0.5;
      shape.max_aspect = 2.0;
      switch_shapes.push_back(shape);
    }
    std::vector<std::optional<fplan::BlockShape>> core_shapes(
        static_cast<std::size_t>(topology.num_slots()));
    for (int core = 0; core < app.num_cores(); ++core) {
      core_shapes[static_cast<std::size_t>(
          core_to_slot[static_cast<std::size_t>(core)])] = app.core(core).shape;
    }
    const auto placement = topology.relative_placement();
    const auto start = Clock::now();
    const auto plan = fplan::Floorplanner(config.floorplan)
                          .place(placement, core_shapes, switch_shapes);
    out.place_ms.push_back(ms_since(start));
    if (plan.blocks().empty()) throw std::logic_error("empty floorplan replay");
  }

  if (!request.fault_sets.empty()) {
    const auto start = Clock::now();
    fault::ScenarioMask mask;
    fault::MaskedBfs bfs;
    for (const auto& topology : *request.library) {
      const auto& g = topology->switch_graph();
      std::vector<graph::NodeId> ingress;
      for (int slot = 0; slot < topology->num_slots(); ++slot) {
        ingress.push_back(topology->ingress_switch(slot));
      }
      std::sort(ingress.begin(), ingress.end());
      ingress.erase(std::unique(ingress.begin(), ingress.end()), ingress.end());
      for (const auto& scenario :
           fault::materialize(request.fault_sets.front().spec, *topology)) {
        fault::make_mask(g, scenario, mask);
        for (const auto src : ingress) fault::masked_bfs(g, src, mask, bfs);
      }
    }
    out.fault_tables_ms += ms_since(start);
  }
}

void add_span_metrics(const std::map<std::string, std::vector<double>>& total,
                      const std::map<std::string, std::vector<double>>& self,
                      Metrics& metrics) {
  static const char* kSpans[] = {
      "mapping.context_build", "mapping.rebind",  "mapping.map",
      "select.request",        "select.prepare",  "select.finalize",
      "select.explore_warm",
      "sim.tier",              "io.report_json",  "sweep.request"};
  for (const char* name : kSpans) {
    const auto t = total.find(name);
    const auto s = self.find(name);
    metrics[std::string(name) + "_ms"] = {
        t == total.end() ? 0.0 : median(t->second), "ms"};
    metrics[std::string(name) + ".self_ms"] = {
        s == self.end() ? 0.0 : median(s->second), "ms"};
  }
}

void add_counter_metrics(const Counters& c, double passes,
                         const WinnerReplay& winners, double fault_ms,
                         Metrics& m) {
  const double per = passes > 0 ? passes : 1.0;
  m["mapping.cells"] = {c.cells / per, "count"};
  m["mapping.evaluated"] = {c.evaluated / per, "count"};
  m["mapping.pruned"] = {c.pruned / per, "count"};
  m["mapping.prune_ratio"] = {ratio(c.pruned, c.evaluated), "ratio"};
  m["mapping.metrics_cache_lookups"] = {c.metrics_lookups / per, "count"};
  m["mapping.metrics_cache_hit_ratio"] = {
      ratio(c.metrics_hits, c.metrics_lookups), "ratio"};
  m["mapping.fplan_cache_lookups"] = {c.fplan_lookups / per, "count"};
  m["mapping.fplan_cache_hit_ratio"] = {ratio(c.fplan_hits, c.fplan_lookups),
                                        "ratio"};
  double map_total = 0.0;
  for (const double ms : c.map_ms) map_total += ms;
  m["mapping.map_ms.p50"] = {quantile(c.map_ms, 0.5), "ms"};
  m["mapping.map_ms.p90"] = {quantile(c.map_ms, 0.9), "ms"};
  m["mapping.evals_per_s"] = {ratio(c.evaluated - c.pruned, map_total / 1000.0),
                              "1/s"};
  for (const char* kind : {"DO", "MP", "SM", "SA"}) {
    const auto it = c.map_ms_by_routing.find(kind);
    m[std::string("mapping.map_ms.") + kind] = {
        it == c.map_ms_by_routing.end() ? 0.0 : median(it->second), "ms"};
  }
  m["route.solves"] = {c.route_solves / per, "count"};
  m["route.full_solves"] = {c.route_full / per, "count"};
  m["route.dijkstra_steps"] = {c.route_steps / per, "count"};
  m["route.reuse_base"] = {(c.route_reused + c.route_steps) / per, "count"};
  m["route.reuse_ratio"] = {
      ratio(c.route_reused, c.route_reused + c.route_steps), "ratio"};
  m["route.solve_ms.SA"] = {median(winners.solve_sa_ms), "ms"};
  m["route.solve_ms.MP"] = {median(winners.solve_mp_ms), "ms"};
  m["fplan.solves"] = {c.fplan_solves / per, "count"};
  m["fplan.full_solves"] = {c.fplan_full / per, "count"};
  m["fplan.incremental_ratio"] = {ratio(c.fplan_incremental, c.fplan_solves),
                                  "ratio"};
  m["fplan.place_ms"] = {median(winners.place_ms), "ms"};
  m["fault.scenarios"] = {c.fault_scenarios / per, "count"};
  m["fault.degraded_evals"] = {c.fault_degraded / per, "count"};
  m["fault.outcomes"] = {c.fault_outcomes / per, "count"};
  m["fault.disconnected_ratio"] = {
      ratio(c.fault_disconnected, c.fault_outcomes), "ratio"};
  m["fault.table_build_ms"] = {fault_ms, "ms"};
  m["sim.runs"] = {c.sim_runs / per, "count"};
  m["sim.flit_events"] = {c.sim_events / per, "count"};
  m["sim.cycles"] = {c.sim_cycles / per, "count"};
  m["sim.undrained"] = {c.sim_undrained / per, "count"};
  m["io.report_bytes"] = {c.report_bytes / per, "bytes"};
}

void add_cache_delta(const mapping::EvalContext::CacheStats& before,
                     Counters& counters) {
  const auto after = mapping::EvalContext::cache_stats();
  const double mh = static_cast<double>(after.metrics_hits - before.metrics_hits);
  const double mm =
      static_cast<double>(after.metrics_misses - before.metrics_misses);
  const double fh =
      static_cast<double>(after.floorplan_hits - before.floorplan_hits);
  const double fm =
      static_cast<double>(after.floorplan_misses - before.floorplan_misses);
  counters.metrics_hits += mh;
  counters.metrics_lookups += mh + mm;
  counters.fplan_hits += fh;
  counters.fplan_lookups += fh + fm;
}

// ------------------------------------------------------ sweep workloads --

constexpr int kSetupRepeats = 5;

Metrics run_sweep_workload(const Options& options, RunState& state,
                           OutputChecker& checker, Tracer& tracer) {
  const select::DesignSpaceExplorer explorer;
  std::vector<double> setup_ms, pass_ms, request_ms, pass_median_ms;
  // Traced-run accumulators.
  Counters counters;
  SessionWatch watch;
  WinnerReplay winners;
  std::vector<double> fault_ms, traced_ms, overhead_ms, coverage;
  std::map<std::string, std::vector<double>> span_total, span_self;
  std::vector<double> sim_rate;

  // The untraced pass: explore() on the pre-built pool, then the report, per
  // app; each request's latency is appended to `latencies`.
  const auto explore_pass = [&](Fixture& fixture,
                                std::vector<double>& latencies) {
    std::vector<std::string> reports(fixture.requests.size());
    for (std::size_t i = 0; i < fixture.requests.size(); ++i) {
      const auto request_start = Clock::now();
      ++state.attempted;
      try {
        reports[i] = io::exploration_report_json(
            explorer.explore(fixture.requests[i]));
        if (!checker.check(fixture.apps[i].key, reports[i])) ++state.failed;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sunbench: %s failed: %s\n",
                     fixture.apps[i].key.c_str(), e.what());
        ++state.failed;
      }
      latencies.push_back(ms_since(request_start));
    }
    return reports;
  };

  const auto inputs = make_inputs(options.workload, options.seed);
  const int min_passes = options.trace ? 2 : 3;
  const auto run_start = Clock::now();
  {
    // One warm-up pass, untimed: first-touch page faults, allocator growth
    // and lazy library state land here rather than in the first timed pass.
    Fixture fixture = make_fixture(options.workload, options.seed, inputs);
    std::vector<double> latencies;
    (void)explore_pass(fixture, latencies);
  }
  while (state.passes < min_passes ||
         ms_since(run_start) < options.seconds * 1000.0) {
    state.host_ref_ms.push_back(host_reference_ms());

    // Set-up takes a few milliseconds, so it is timed several times per
    // pass; the last fixture built is the one the pass explores.
    Fixture fixture;
    for (int i = 0; i < kSetupRepeats; ++i) {
      fixture = Fixture{};
      const auto setup_start = Clock::now();
      fixture = make_fixture(options.workload, options.seed, inputs);
      setup_ms.push_back(ms_since(setup_start));
    }

    const auto pass_start = Clock::now();
    const std::vector<std::string> reports = explore_pass(fixture, request_ms);
    const double pass = ms_since(pass_start);
    pass_ms.push_back(pass);
    pass_median_ms.push_back(median(std::vector<double>(
        request_ms.end() - static_cast<std::ptrdiff_t>(fixture.requests.size()),
        request_ms.end())));

    if (options.trace) {
      // The traced replay of the same pass on fresh pools (cold caches, as
      // in the untraced pass); its reports must match explore()'s exactly.
      tracer.set_pass(state.passes);
      counters.begin_pass();
      const std::size_t first_span = tracer.spans().size();
      std::vector<select::ExplorationReport> replayed(fixture.requests.size());
      // Fresh pools, kept until after the pass: the untraced pass does not
      // pay for tearing its pools down either.
      std::vector<select::ExplorerContextPool> pools(fixture.requests.size());
      const auto traced_start = Clock::now();
      {
        Tracer::Scope pass_span(tracer, "pass", -1);
        for (std::size_t i = 0; i < fixture.requests.size(); ++i) {
          const int rid = static_cast<int>(i);
          Tracer::Scope request_span(tracer, "select.request", rid);
          select::ExplorationRequest request = fixture.requests[i];
          request.context_pool = &pools[i];
          const auto cache_before = mapping::EvalContext::cache_stats();
          replayed[i] =
              replay_explore(request, pools[i], tracer, rid, counters, watch);
          add_cache_delta(cache_before, counters);
          std::string json;
          {
            Tracer::Scope span(tracer, "io.report_json", rid);
            json = io::exploration_report_json(replayed[i]);
          }
          counters.report_bytes += static_cast<double>(json.size());
          if (json != reports[i]) {
            std::fprintf(stderr, "sunbench: traced replay of %s differs from "
                         "explore()\n", fixture.apps[i].key.c_str());
            ++state.failed;
          }
        }
      }
      const double traced = ms_since(traced_start);
      traced_ms.push_back(traced);

      std::map<std::string, double> total, self;
      tracer.totals(first_span, total, self);
      // The untraced pass built its contexts in set-up; the replay builds
      // them inside the pass, so that time is not tracing overhead.
      overhead_ms.push_back(traced - pass - total["mapping.context_build"]);
      for (const auto& [name, ms] : total) span_total[name].push_back(ms);
      for (const auto& [name, ms] : self) span_self[name].push_back(ms);
      coverage.push_back(
          ratio(total["pass"] - self["pass"] - self["select.request"],
                total["pass"]));
      const double sim_events_before = counters.sim_events;
      for (std::size_t i = 0; i < fixture.requests.size(); ++i) {
        count_outcomes(fixture.requests[i], replayed[i], counters);
      }
      sim_rate.push_back(ratio(counters.sim_events - sim_events_before,
                               total["sim.tier"] / 1000.0));

      WinnerReplay pass_winners;
      for (std::size_t i = 0; i < fixture.requests.size(); ++i) {
        replay_winners(fixture.requests[i], replayed[i], pass_winners);
      }
      for (const double ms : pass_winners.solve_sa_ms)
        winners.solve_sa_ms.push_back(ms);
      for (const double ms : pass_winners.solve_mp_ms)
        winners.solve_mp_ms.push_back(ms);
      for (const double ms : pass_winners.place_ms)
        winners.place_ms.push_back(ms);
      fault_ms.push_back(pass_winners.fault_tables_ms);
    }
    ++state.passes;
  }

  Metrics metrics;
  if (!options.trace) {
    metrics["sweep_s"] = {median(pass_ms) / 1000.0, "s"};
    metrics["setup_s"] = {median(setup_ms) / 1000.0, "s"};
    metrics["request_p50_ms"] = {median(pass_median_ms), "ms"};
    metrics["request_p95_ms"] = {quantile(request_ms, 0.95), "ms"};
    metrics["requests_per_s"] = {
        ratio(static_cast<double>(inputs.size()), median(pass_ms) / 1000.0),
        "1/s"};
    return metrics;
  }
  add_span_metrics(span_total, span_self, metrics);
  add_counter_metrics(counters, state.passes, winners, median(fault_ms),
                      metrics);
  metrics["sim.events_per_s"] = {median(sim_rate), "1/s"};
  metrics["select.explore_warm_ms.p50"] = {0.0, "ms"};
  metrics["sweep.request_overhead_ms.p50"] = {0.0, "ms"};
  metrics["trace.pass_ms"] = {median(traced_ms), "ms"};
  metrics["trace.untraced_pass_ms"] = {median(pass_ms), "ms"};
  metrics["trace.overhead_ms"] = {median(overhead_ms), "ms"};
  metrics["trace.coverage"] = {*std::min_element(coverage.begin(),
                                                 coverage.end()),
                               "ratio"};
  return metrics;
}

// ------------------------------------------------------- serve workload --

struct ServeRequest {
  std::string key;   // digest key, e.g. "vopd@500"
  std::string app;
  double bandwidth = 0.0;
  std::string text;  // the daemon request
};

std::vector<ServeRequest> serve_cycle(std::uint64_t seed) {
  std::vector<ServeRequest> cycle;
  for (const std::string name : kBuiltinApps) {
    for (const int bw : {400, 500, 700}) {
      ServeRequest request;
      request.key = name + "@" + std::to_string(bw);
      request.app = name;
      request.bandwidth = bw;
      request.text = "app=" + name +
                     "\nroutings=MP\nobjectives=delay,power\nbandwidths=" +
                     std::to_string(bw) + "\nswap_passes=1\n";
      cycle.push_back(std::move(request));
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(cycle.begin(), cycle.end(), rng);
  return cycle;
}

/// A local twin of one of the daemon's resident pools: the app, its
/// library and warm contexts, for replaying requests in-process.
struct LocalApp {
  std::unique_ptr<mapping::CoreGraph> graph;
  std::unique_ptr<Library> library;
  select::ExplorerContextPool pool;
};

/// The request the daemon's handler builds from the same fields.
select::ExplorationRequest local_request(const ServeRequest& request,
                                         LocalApp& local) {
  select::ExplorationRequest out;
  out.app = local.graph.get();
  out.library = local.library.get();
  out.context_pool = &local.pool;
  out.objectives = {mapping::Objective::kMinDelay,
                    mapping::Objective::kMinPower};
  out.routings = {route::RoutingKind::kMinPath};
  out.link_bandwidths_mbps = {request.bandwidth};
  out.swap_passes = {1};
  return out;
}

/// One in-process daemon with one accept thread, serving exactly
/// `max_requests` requests. The destructor stops and joins it.
class Daemon {
 public:
  Daemon(std::string socket_path, int max_requests)
      : socket_path_(std::move(socket_path)) {
    sweep::DaemonOptions daemon_options;
    daemon_options.socket_path = socket_path_;
    daemon_options.max_requests = max_requests;
    daemon_options.accept_threads = 1;
    thread_ = std::thread([this, daemon_options]() {
      try {
        (void)sweep::serve(daemon_options);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~Daemon() {
    if (thread_.joinable()) {
      sweep::request_stop();  // only reached when a request went missing
      thread_.join();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for the daemon to exit after its last request.
  void join() {
    thread_.join();
    if (!error_.empty()) throw std::runtime_error(error_);
  }

  /// call_daemon, retrying while the listener is not up yet.
  std::string call(const std::string& text, bool first) {
    for (int attempt = 0;; ++attempt) {
      try {
        return sweep::call_daemon(socket_path_, text);
      } catch (const std::runtime_error& e) {
        const bool not_up = std::strstr(e.what(), "cannot connect") != nullptr;
        if (!first || !not_up || attempt >= 2000) throw;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
  }

 private:
  std::string socket_path_;
  std::string error_;
  std::thread thread_;
};

Metrics run_serve_workload(const Options& options, RunState& state,
                           OutputChecker& checker, Tracer& tracer) {
  // Each daemon and the client share one CPU, so each request is handed
  // over by a context switch. Across two CPUs every hand-over wakes an idle
  // virtual CPU, and on a loaded host that wake-up alone took up to 8 ms on
  // a tenth of the requests for minutes at a time: p95 latency went from 4
  // to 9 ms between runs of the same code, which measures the host's
  // scheduler, not the daemon. Successive daemons take the CPUs in turn, so
  // a run samples every CPU alike rather than one that may sit next to a
  // busy neighbour for the whole run.
  const std::vector<int> cpus = allowed_cpus();
  const auto cycle = serve_cycle(options.seed);
  constexpr int kWarmCycles = 10;
  const int per_daemon = static_cast<int>(cycle.size()) * (1 + kWarmCycles);
  const std::string socket_path = options.work_dir + "/sunbench-" +
                                  std::to_string(::getpid()) + ".sock";

  std::vector<double> setup_ms, cycle_ms, latency_ms, cycle_median_ms;
  // Traced-run state: a local warm pool per app for the in-process replay.
  std::map<std::string, LocalApp> local;
  Counters counters;
  SessionWatch watch;
  std::vector<double> explore_ms, overhead_ms, untraced_cycle_ms,
      traced_cycle_ms, coverage;
  std::map<std::string, std::vector<double>> span_total, span_self;
  const select::DesignSpaceExplorer explorer;

  const auto one_request = [&](Daemon& daemon, const ServeRequest& request,
                               bool first, std::string& body) {
    ++state.attempted;
    try {
      body = daemon.call(request.text, first);
      if (!checker.check(request.key, body)) ++state.failed;
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sunbench: request %s failed: %s\n",
                   request.key.c_str(), e.what());
      ++state.failed;
      return false;
    }
  };

  if (options.trace) {
    // Local twins of the daemon's pools, warmed by explore() itself so the
    // replays below see the same warm state as the daemon.
    for (const auto& request : cycle) {
      LocalApp& app = local[request.app];
      if (!app.graph) {
        app.graph =
            std::make_unique<mapping::CoreGraph>(builtin_app(request.app));
        app.library = std::make_unique<Library>(
            topo::standard_library(app.graph->num_cores()));
      }
      (void)explorer.explore(local_request(request, app));
    }
  }

  const auto run_start = Clock::now();
  int instance = 0;
  while (instance < 2 || ms_since(run_start) < options.seconds * 1000.0) {
    bind_to_cpu(cpus[static_cast<std::size_t>(instance) % cpus.size()]);
    ++instance;
    state.host_ref_ms.push_back(host_reference_ms());
    bool healthy = true;
    std::string body;
    {
      const auto setup_start = Clock::now();
      Daemon daemon(socket_path, per_daemon);
      bool first = true;
      for (const auto& request : cycle) {
        healthy = one_request(daemon, request, first, body) && healthy;
        first = false;
      }
      setup_ms.push_back(ms_since(setup_start));

      for (int c = 0; c < kWarmCycles; ++c) {
        const bool traced_cycle = options.trace && c % 2 == 1;
        tracer.set_pass(state.passes);
        if (traced_cycle) counters.begin_pass();
        const std::size_t first_span = tracer.spans().size();
        double requests_ms = 0.0;
        // Replayed reports are freed after the cycle is timed, as the daemon
        // frees its own after replying.
        std::vector<select::ExplorationReport> replayed;
        std::vector<std::string> replayed_json;
        const auto cycle_start = Clock::now();
        for (std::size_t r = 0; r < cycle.size(); ++r) {
          const auto& request = cycle[r];
          const int rid = static_cast<int>(r);
          const auto request_start = Clock::now();
          if (traced_cycle) {
            Tracer::Scope span(tracer, "sweep.request", rid);
            healthy = one_request(daemon, request, false, body) && healthy;
          } else {
            healthy = one_request(daemon, request, false, body) && healthy;
          }
          const double latency = ms_since(request_start);
          requests_ms += latency;
          if (!options.trace) latency_ms.push_back(latency);
          if (!traced_cycle) continue;

          // In-process replay of the same request on a local warm pool.
          LocalApp& app = local.at(request.app);
          const auto local_req = local_request(request, app);
          const auto cache_before = mapping::EvalContext::cache_stats();
          const auto explore_start = Clock::now();
          select::ExplorationReport report;
          {
            Tracer::Scope span(tracer, "select.explore_warm", rid);
            report =
                replay_explore(local_req, app.pool, tracer, rid, counters, watch);
          }
          const double explore = ms_since(explore_start);
          add_cache_delta(cache_before, counters);
          std::string json;
          const auto json_start = Clock::now();
          {
            Tracer::Scope span(tracer, "io.report_json", rid);
            json = io::exploration_report_json(report);
          }
          const double json_ms = ms_since(json_start);
          counters.report_bytes += static_cast<double>(json.size());
          if (json != body) {
            std::fprintf(stderr, "sunbench: in-process replay of %s differs "
                         "from the daemon's response\n", request.key.c_str());
            ++state.failed;
          }
          explore_ms.push_back(explore);
          overhead_ms.push_back(latency - explore - json_ms);
          replayed.push_back(std::move(report));
          replayed_json.push_back(std::move(json));
        }
        const double wall = ms_since(cycle_start);
        if (traced_cycle) {
          traced_cycle_ms.push_back(requests_ms);
          std::map<std::string, double> total, self;
          tracer.totals(first_span, total, self);
          for (const auto& [name, ms] : total) span_total[name].push_back(ms);
          for (const auto& [name, ms] : self) span_self[name].push_back(ms);
          coverage.push_back(ratio(total["sweep.request"] +
                                       total["select.explore_warm"] +
                                       total["io.report_json"],
                                   wall));
        } else {
          untraced_cycle_ms.push_back(requests_ms);
          cycle_ms.push_back(wall);
          if (!options.trace) {
            cycle_median_ms.push_back(median(std::vector<double>(
                latency_ms.end() - static_cast<std::ptrdiff_t>(cycle.size()),
                latency_ms.end())));
          }
        }
      }
      // A request the daemon never received leaves it waiting; the
      // destructor then stops it instead.
      if (healthy) daemon.join();
    }
    ++state.passes;
    if (!healthy) break;  // a lost request leaves the daemon unusable
  }
  std::remove(socket_path.c_str());

  Metrics metrics;
  if (!options.trace) {
    metrics["sweep_s"] = {median(cycle_ms) / 1000.0, "s"};
    metrics["setup_s"] = {median(setup_ms) / 1000.0, "s"};
    metrics["request_p50_ms"] = {median(cycle_median_ms), "ms"};
    metrics["request_p95_ms"] = {quantile(latency_ms, 0.95), "ms"};
    metrics["requests_per_s"] = {
        ratio(static_cast<double>(cycle.size()), median(cycle_ms) / 1000.0),
        "1/s"};
    return metrics;
  }
  const double traced_cycles = static_cast<double>(traced_cycle_ms.size());
  add_span_metrics(span_total, span_self, metrics);
  add_counter_metrics(counters, traced_cycles, WinnerReplay{}, 0.0, metrics);
  metrics["sim.events_per_s"] = {0.0, "1/s"};
  metrics["select.explore_warm_ms.p50"] = {median(explore_ms), "ms"};
  metrics["sweep.request_overhead_ms.p50"] = {median(overhead_ms), "ms"};
  metrics["trace.pass_ms"] = {median(traced_cycle_ms), "ms"};
  metrics["trace.untraced_pass_ms"] = {median(untraced_cycle_ms), "ms"};
  metrics["trace.overhead_ms"] = {
      median(traced_cycle_ms) - median(untraced_cycle_ms), "ms"};
  metrics["trace.coverage"] = {
      coverage.empty() ? 0.0
                       : *std::min_element(coverage.begin(), coverage.end()),
      "ratio"};
  return metrics;
}

// ----------------------------------------------------------------- main --

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--pinned") {
      options.pinned_path = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (options.workload != "grid" && options.workload != "robust" &&
      options.workload != "serve") {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.seed == 0) throw std::invalid_argument("--seed must be >= 1");
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    const auto origin = Clock::now();
    OutputChecker checker(options, options.workload);
    RunState state;
    Tracer tracer;
    Metrics metrics = options.workload == "serve"
                          ? run_serve_workload(options, state, checker, tracer)
                          : run_sweep_workload(options, state, checker, tracer);
    const double ref_ms = median(state.host_ref_ms);
    if (options.trace) {
      metrics["host.ref_ms"] = {ref_ms, "ms"};
      tracer.write(options.work_dir + "/trace-" + options.workload + "-" +
                       std::to_string(options.seed) + ".json",
                   origin);
    } else {
      metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    }

    std::string info = "{\"workload\":" + json_string(options.workload) +
                       ",\"seed\":" + std::to_string(options.seed) +
                       ",\"trace\":" + (options.trace ? "1" : "0") +
                       ",\"passes\":" + std::to_string(state.passes) +
                       ",\"host_ref_ms\":" + json_number(ref_ms) +
                       ",\"digests\":{";
    bool first = true;
    for (const auto& [key, digest] : checker.digests()) {
      info += (first ? "" : ",") + json_string(key) + ":" + json_string(digest);
      first = false;
    }
    std::printf("%s}}\n", info.c_str());

    std::string result = "{\"correct\":" +
                         std::string(state.failed == 0 ? "true" : "false") +
                         ",\"attempted\":" + std::to_string(state.attempted) +
                         ",\"failed\":" + std::to_string(state.failed) +
                         ",\"metrics\":{";
    first = true;
    for (const auto& [name, metric] : metrics) {
      result += (first ? "" : ",") + json_string(name) + ":{\"value\":" +
                json_number(metric.value) + ",\"unit\":" +
                json_string(metric.unit) + "}";
      first = false;
    }
    std::printf("%s}}\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sunbench: %s\n", e.what());
    return 1;
  }
}
