#include "select/explorer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "fault/fault.h"
#include "mapping/eval_context.h"
#include "mapping/sim_eval.h"

namespace sunmap::select {

namespace {

std::string format_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

/// Runs `worker` on this thread plus num_workers - 1 spawned ones and
/// joins — the shared scaffold of the mapping loop and the finalist tier
/// (the worker captures its own work queue and error slot).
void run_worker_pool(int num_workers, const std::function<void()>& worker) {
  if (num_workers <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(num_workers - 1));
  for (int i = 1; i < num_workers; ++i) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();
}

/// The distinct objectives of a request, in axis order — the one winner
/// grouping WinnerTracker, the finalist tier, and the sim re-rank share.
std::vector<mapping::Objective> distinct_objectives(
    const ExplorationRequest& request) {
  std::vector<mapping::Objective> objectives;
  for (const auto objective : request.objectives) {
    if (std::find(objectives.begin(), objectives.end(), objective) ==
        objectives.end()) {
      objectives.push_back(objective);
    }
  }
  if (objectives.empty()) objectives.push_back(request.base.objective);
  return objectives;
}

/// One finalist cell: a feasible (point, topology) coordinate with its
/// analytical mapping cost (the prefilter key).
struct FinalistCell {
  double cost = 0.0;
  std::size_t point = 0;
  std::size_t topology = 0;
};

/// The analytical prefilter: the top-K feasible cells of one objective by
/// mapping cost, ties to the earlier grid coordinate.
std::vector<FinalistCell> objective_finalists(const ExplorationRequest& request,
                                          const ExplorationReport& report,
                                          mapping::Objective objective) {
  std::vector<FinalistCell> cells;
  for (std::size_t p = 0; p < report.results.size(); ++p) {
    const auto& result = report.results[p];
    if (result.point.config.objective != objective) continue;
    for (std::size_t t = 0; t < result.selection.candidates.size(); ++t) {
      const auto& candidate = result.selection.candidates[t];
      if (!candidate.feasible()) continue;
      cells.push_back(FinalistCell{candidate.result.eval.cost, p, t});
    }
  }
  std::sort(cells.begin(), cells.end(),
            [](const FinalistCell& a, const FinalistCell& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.point != b.point) return a.point < b.point;
              return a.topology < b.topology;
            });
  cells.resize(std::min(cells.size(),
                        static_cast<std::size_t>(request.sim_finalists)));
  return cells;
}

}  // namespace

void simulate_finalists(const ExplorationRequest& request,
                        ExplorationReport& report) {
  if (request.app == nullptr) {
    throw std::invalid_argument("simulate_finalists: request has no app");
  }
  if (request.num_threads < 1 || request.num_threads > kMaxThreads) {
    throw std::invalid_argument(
        "simulate_finalists: num_threads must be in [1, " +
        std::to_string(kMaxThreads) + "], got " +
        std::to_string(request.num_threads));
  }
  if (request.sim_finalists <= 0) return;
  const mapping::CoreGraph& app = *request.app;

  // Union of every group's top-K, in ascending (point, topology) order —
  // the deterministic work list. std::set both dedups cells shared between
  // groups and fixes the order.
  std::set<std::pair<std::size_t, std::size_t>> finalist_set;
  for (const auto objective : distinct_objectives(request)) {
    for (const auto& cell : objective_finalists(request, report, objective)) {
      finalist_set.emplace(cell.point, cell.topology);
    }
  }
  const std::vector<std::pair<std::size_t, std::size_t>> finalists(
      finalist_set.begin(), finalist_set.end());
  if (finalists.empty()) return;

  // Deterministic worker pool: each worker owns a SimEvaluator (per-thread
  // layout/simulator caches and injection schedule — a SimEvaluator
  // instance is not thread-safe) and pulls cells off a shared cursor.
  // Every score() equals a fresh seeded run, so it is
  // assignment-independent, and every result lands in its own slot, so the
  // merge below — ascending cell order — is bit-identical to the serial
  // tier no matter how cells were interleaved across threads.
  const int num_workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(request.num_threads), finalists.size()));
  std::vector<std::optional<mapping::SimScore>> scores(finalists.size());
  std::atomic<std::size_t> next_cell{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto worker = [&]() {
    mapping::SimEvaluator evaluator(mapping::sim_tier_options(request.base));
    for (;;) {
      const std::size_t i = next_cell.fetch_add(1);
      if (i >= finalists.size()) break;
      const auto& [p, t] = finalists[i];
      try {
        const auto& candidate = report.results[p].selection.candidates[t];
        scores[i] =
            evaluator.score(app, *candidate.topology, candidate.result);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        break;
      }
    }
  };
  run_worker_pool(num_workers, worker);
  if (first_error) std::rethrow_exception(first_error);

  for (std::size_t i = 0; i < finalists.size(); ++i) {
    const auto& [p, t] = finalists[i];
    report.results[p].selection.candidates[t].sim = std::move(scores[i]);
  }
}

std::vector<ObjectiveBest> rank_sim_winners(const ExplorationRequest& request,
                                            const ExplorationReport& report) {
  std::vector<ObjectiveBest> winners;
  for (const auto objective : distinct_objectives(request)) {
    ObjectiveBest best;
    best.objective = objective;
    // Re-rank the group's own finalists (the analytical prefilter) by
    // simulated delay: drained runs outrank saturated ones (a saturated
    // latency is only a lower bound), then lower simulated latency, then
    // the analytical cost and grid coordinate as deterministic ties.
    bool have = false;
    double best_latency = 0.0;
    bool best_drained = false;
    double best_cost = 0.0;
    for (const auto& cell : objective_finalists(request, report, objective)) {
      const auto& candidate =
          report.results[cell.point].selection.candidates[cell.topology];
      if (!candidate.sim.has_value()) continue;
      const bool drained =
          candidate.sim->stats.status == sim::RunStatus::kDrained;
      const double latency = candidate.sim->simulated_latency_cycles;
      const bool better =
          !have ||
          (drained != best_drained
               ? drained
               : (latency != best_latency ? latency < best_latency
                                          : cell.cost < best_cost));
      if (better) {
        have = true;
        best_drained = drained;
        best_latency = latency;
        best_cost = cell.cost;
        best.point_index = static_cast<int>(cell.point);
        best.topology_index = static_cast<int>(cell.topology);
      }
    }
    winners.push_back(best);
  }
  return winners;
}

int best_feasible_index(const std::vector<TopologyCandidate>& candidates) {
  int best = -1;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& candidate = candidates[i];
    if (!candidate.feasible()) continue;
    if (best < 0 ||
        candidate.result.eval.cost <
            candidates[static_cast<std::size_t>(best)].result.eval.cost) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

WinnerTracker::WinnerTracker(const ExplorationRequest& request) {
  for (const auto objective : distinct_objectives(request)) {
    ObjectiveBest best;
    best.objective = objective;
    winners_.push_back(best);
    best_costs_.push_back(0.0);
  }
}

void WinnerTracker::consider(const PointResult& result, int point_index) {
  for (std::size_t g = 0; g < winners_.size(); ++g) {
    auto& best = winners_[g];
    if (result.point.config.objective != best.objective) continue;
    for (std::size_t t = 0; t < result.selection.candidates.size(); ++t) {
      const auto& candidate = result.selection.candidates[t];
      if (!candidate.feasible()) continue;
      if (!best.found() || candidate.result.eval.cost < best_costs_[g]) {
        best.point_index = point_index;
        best.topology_index = static_cast<int>(t);
        best_costs_[g] = candidate.result.eval.cost;
      }
    }
  }
}

std::vector<ObjectiveBest> WinnerTracker::take() {
  return std::move(winners_);
}

void finish_report(const ExplorationRequest& request,
                   ExplorationReport& report) {
  WinnerTracker tracker(request);
  std::vector<std::pair<double, double>> area_power;
  for (std::size_t p = 0; p < report.results.size(); ++p) {
    auto& result = report.results[p];
    result.selection.best_index =
        best_feasible_index(result.selection.candidates);
    tracker.consider(result, static_cast<int>(p));
    for (const auto& candidate : result.selection.candidates) {
      if (!candidate.feasible()) continue;
      area_power.emplace_back(candidate.result.eval.design_area_mm2,
                              candidate.result.eval.design_power_mw);
    }
  }
  report.winners = tracker.take();
  report.pareto = pareto_frontier(area_power);
}

std::size_t ExplorationRequest::num_points() const {
  const auto axis = [](std::size_t n) { return n == 0 ? 1 : n; };
  return axis(floorplan_options.size()) * axis(fault_sets.size()) *
         axis(routings.size()) *
         axis(link_bandwidths_mbps.size()) * axis(max_areas_mm2.size()) *
         axis(searches.size()) *
         axis(restart_counts.size()) * axis(swap_passes.size()) *
         axis(objectives.size());
}

std::size_t ExplorationRequest::objective_run() const {
  return std::max<std::size_t>(1, objectives.size());
}

std::string DesignPoint::label() const {
  std::string label = route::to_string(config.routing);
  label += "/";
  label += mapping::to_string(config.objective);
  label += "/bw";
  label += format_number(config.link_bandwidth_mbps);
  if (std::isfinite(config.max_area_mm2)) {
    label += "/area<=";
    label += format_number(config.max_area_mm2);
  }
  if (config.search != mapping::SearchKind::kGreedySwaps) {
    label += "/";
    label += mapping::to_string(config.search);
    if (config.search == mapping::SearchKind::kRestartAnnealing) {
      label += "-x";
      label += std::to_string(config.annealing_restarts);
    }
  }
  if (swap_passes_index > 0) {
    label += "/sp";
    label += std::to_string(config.swap_passes);
  }
  if (fplan_index > 0) {
    label += "/fp-";
    label += fplan::to_string(config.floorplan.engine);
    label += "-sz";
    label += std::to_string(config.floorplan.sizing_passes);
  }
  if (!config.faults.empty()) {
    label += "/flt-";
    label += fault::describe(config.faults);
  }
  return label;
}

const TopologyCandidate* ExplorationReport::winner(
    mapping::Objective objective) const {
  for (const auto& best : winners) {
    if (best.objective != objective) continue;
    if (!best.found()) return nullptr;
    return &results[static_cast<std::size_t>(best.point_index)]
                .selection
                .candidates[static_cast<std::size_t>(best.topology_index)];
  }
  return nullptr;
}

std::vector<DesignPoint> DesignSpaceExplorer::expand(
    const ExplorationRequest& request) {
  // Objective varies fastest: consecutive points then differ only in the
  // cost function, which keeps the per-topology context's evaluation class
  // stable and its metrics cache warm across the inner loop (run_sweep's
  // shards are these runs; see objective_run()). Floorplan
  // options vary slowest: they are the one axis whose move clears the
  // floorplan cache and incremental sessions on rebind. Fault sets sit
  // just inside them: a fault-spec move clears the metrics cache and
  // rebuilds the degraded-path table, the second-costliest rebind.
  std::vector<DesignPoint> points;
  points.reserve(request.num_points());
  const std::size_t nf =
      std::max<std::size_t>(1, request.floorplan_options.size());
  const std::size_t nx = std::max<std::size_t>(1, request.fault_sets.size());
  const std::size_t nr = std::max<std::size_t>(1, request.routings.size());
  const std::size_t nb =
      std::max<std::size_t>(1, request.link_bandwidths_mbps.size());
  const std::size_t na = std::max<std::size_t>(1, request.max_areas_mm2.size());
  const std::size_t ns = std::max<std::size_t>(1, request.searches.size());
  const std::size_t nc =
      std::max<std::size_t>(1, request.restart_counts.size());
  const std::size_t np = std::max<std::size_t>(1, request.swap_passes.size());
  const std::size_t no = std::max<std::size_t>(1, request.objectives.size());
  for (std::size_t f = 0; f < nf; ++f) {
   for (std::size_t x = 0; x < nx; ++x) {
    for (std::size_t r = 0; r < nr; ++r) {
      for (std::size_t b = 0; b < nb; ++b) {
        for (std::size_t a = 0; a < na; ++a) {
          for (std::size_t s = 0; s < ns; ++s) {
            for (std::size_t c = 0; c < nc; ++c) {
              for (std::size_t p = 0; p < np; ++p) {
                for (std::size_t o = 0; o < no; ++o) {
                  DesignPoint point;
                  point.config = request.base;
                  if (!request.floorplan_options.empty()) {
                    point.config.floorplan = request.floorplan_options[f];
                  }
                  if (!request.fault_sets.empty()) {
                    point.config.faults = request.fault_sets[x];
                  }
                  if (!request.routings.empty()) {
                    point.config.routing = request.routings[r];
                  }
                  if (!request.link_bandwidths_mbps.empty()) {
                    point.config.link_bandwidth_mbps =
                        request.link_bandwidths_mbps[b];
                  }
                  if (!request.max_areas_mm2.empty()) {
                    point.config.max_area_mm2 = request.max_areas_mm2[a];
                  }
                  if (!request.searches.empty()) {
                    point.config.search = request.searches[s];
                  }
                  if (!request.restart_counts.empty()) {
                    point.config.annealing_restarts =
                        request.restart_counts[c];
                  }
                  if (!request.swap_passes.empty()) {
                    point.config.swap_passes = request.swap_passes[p];
                  }
                  if (!request.objectives.empty()) {
                    point.config.objective = request.objectives[o];
                  }
                  point.fplan_index = static_cast<int>(f);
                  point.fault_index = static_cast<int>(x);
                  point.routing_index = static_cast<int>(r);
                  point.bandwidth_index = static_cast<int>(b);
                  point.area_index = static_cast<int>(a);
                  point.search_index = static_cast<int>(s);
                  point.restarts_index = static_cast<int>(c);
                  point.swap_passes_index = static_cast<int>(p);
                  point.objective_index = static_cast<int>(o);
                  points.push_back(std::move(point));
                }
              }
            }
          }
        }
      }
    }
   }
  }
  return points;
}

ExplorationReport DesignSpaceExplorer::explore(
    const ExplorationRequest& request) const {
  if (request.app == nullptr) {
    throw std::invalid_argument("DesignSpaceExplorer: request has no app");
  }
  if (request.library == nullptr) {
    throw std::invalid_argument("DesignSpaceExplorer: request has no library");
  }
  if (request.num_threads < 1 || request.num_threads > kMaxThreads) {
    throw std::invalid_argument(
        "DesignSpaceExplorer: num_threads must be in [1, " +
        std::to_string(kMaxThreads) + "], got " +
        std::to_string(request.num_threads));
  }
  if (request.sim_finalists < 0) {
    throw std::invalid_argument(
        "DesignSpaceExplorer: sim_finalists must be >= 0");
  }
  if (request.sim_rank && request.sim_finalists < 1) {
    throw std::invalid_argument(
        "DesignSpaceExplorer: sim_rank requires sim_finalists >= 1 (the "
        "analytical prefilter that picks the cells to re-rank)");
  }

  const mapping::CoreGraph& app = *request.app;
  const auto& library = *request.library;
  auto points = expand(request);

  // Bind (or verify) the externally-owned context pool. The pool's
  // contexts borrow the app and library, so serving a different pair with
  // them would evaluate the wrong problem; fail loudly instead.
  ExplorerContextPool local_pool;
  ExplorerContextPool& pool =
      request.context_pool != nullptr ? *request.context_pool : local_pool;
  if (pool.bound_app == nullptr) {
    pool.bound_app = &app;
    pool.bound_topologies.clear();
    for (const auto& topology : library) {
      pool.bound_topologies.push_back(topology.get());
    }
  } else {
    bool same = pool.bound_app == &app &&
                pool.bound_topologies.size() == library.size();
    for (std::size_t t = 0; same && t < library.size(); ++t) {
      same = pool.bound_topologies[t] == library[t].get();
    }
    if (!same) {
      throw std::invalid_argument(
          "DesignSpaceExplorer: context pool is bound to a different "
          "app/library");
    }
  }
  pool.contexts.resize(library.size());
  pool.scratches.resize(library.size());

  // Centralised validation of every expanded configuration before any work
  // runs, so a bad axis value fails the whole request up front.
  for (const auto& point : points) point.config.validate();

  // One shared mapper for the whole grid: Mapper::map(ctx, scratch) takes
  // every setting from the context's bound config, and the technology point
  // is not a sweep axis, so all points share one resolved area/power
  // library.
  mapping::Mapper mapper(points.front().config);

  ExplorationReport report;
  report.results.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    report.results[p].point = points[p];
    report.results[p].selection.candidates.resize(library.size());
    for (std::size_t t = 0; t < library.size(); ++t) {
      report.results[p].selection.candidates[t].topology = library[t].get();
    }
  }

  if (!points.empty() && !library.empty()) {
    // Work unit = one topology: its context is built once and re-bound
    // across every design point, so rebinding (not rebuilding) is what a
    // sweep pays per configuration. Cells are written to fixed (point,
    // topology) slots, making the report order independent of scheduling.
    std::atomic<std::size_t> next_topology{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    const auto worker = [&]() {
      for (;;) {
        const std::size_t t = next_topology.fetch_add(1);
        if (t >= library.size()) break;
        try {
          if (pool.contexts[t] == nullptr) {
            pool.contexts[t] = std::make_unique<mapping::EvalContext>(
                app, *library[t], points.front().config, mapper.library());
          } else {
            pool.contexts[t]->rebind(points.front().config, mapper.library());
          }
          mapping::EvalContext& ctx = *pool.contexts[t];
          // One scratch per topology, surviving the whole grid: it carries
          // the incremental floorplan session, which rebind() keeps alive
          // across every design point that shares the floorplan options and
          // technology (the session epoch only moves when those do).
          mapping::EvalScratch& scratch = pool.scratches[t];
          for (std::size_t p = 0; p < points.size(); ++p) {
            if (p > 0) ctx.rebind(points[p].config, mapper.library());
            report.results[p].selection.candidates[t].result =
                mapper.map(ctx, scratch);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          break;
        }
      }
    };

    run_worker_pool(
        static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(request.num_threads), library.size())),
        worker);
    if (first_error) std::rethrow_exception(first_error);
  }

  finish_report(request, report);

  // High-fidelity finalist tier (opt-in): simulate the top-K cells of each
  // objective group. Purely additive — nothing above reads the scores.
  if (request.sim_finalists > 0) {
    simulate_finalists(request, report);
    if (request.sim_rank) report.sim_winners = rank_sim_winners(request, report);
  }

  return report;
}

}  // namespace sunmap::select
