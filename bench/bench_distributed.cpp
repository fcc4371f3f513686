// Experiment DIST — the cross-PR probe for the distributed sweep service
// (sweep/coordinator.h). One grid over the VOPD decoder and the full
// standard library — 3 objectives x 4 routing functions x 2 link
// bandwidths, the Fig 6/7 sweep crossed with the §6.3 bandwidth axis —
// run three ways:
//
//  * single  — one in-process DesignSpaceExplorer::explore call;
//  * merged  — run_sweep at worker counts {1, 2}, every merged report
//              compared bit-for-bit against the single-process reference
//              (mappings, scalars, winners, Pareto frontier). The 24 points
//              form 8 shards of one objective run each; the 4 split-all
//              delay/power points dominate the cost;
//  * resumed — a checkpoint journal cut to its first half, resumed, and
//              compared against the same reference, with the evaluation
//              counter proving the journaled half was never re-run.
//
// `--json` writes BENCH_distributed.json (bench/probe.h) with two
// invariants, merge_bit_identical and resume_bit_identical, and the
// 2-worker sweep's wall time as wall_ms; the binary exits nonzero when
// either fails. Worker scaling is recorded per worker count; the >= 1.7x
// two-worker bar is only enforced when the machine actually has 2+
// hardware threads — on a single-core runner the fork overhead makes the
// ratio meaningless, so there it is informational.

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "bench/probe.h"
#include "select/explorer.h"
#include "sweep/checkpoint.h"
#include "sweep/coordinator.h"
#include "topo/library.h"
#include "util/table.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace sunmap;

constexpr mapping::Objective kObjectives[] = {mapping::Objective::kMinDelay,
                                              mapping::Objective::kMinArea,
                                              mapping::Objective::kMinPower};
constexpr int kWorkerCounts[] = {1, 2};

select::ExplorationRequest grid_request(
    const mapping::CoreGraph& app,
    const std::vector<std::unique_ptr<topo::Topology>>& library) {
  select::ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.base = sunmap::bench::video_config();
  request.objectives.assign(std::begin(kObjectives), std::end(kObjectives));
  request.routings.assign(std::begin(route::kAllRoutingKinds),
                          std::end(route::kAllRoutingKinds));
  request.link_bandwidths_mbps = {500.0, 1000.0};
  return request;
}

/// Bit-for-bit comparison of a merged sweep report against the
/// single-process reference: scalars and mappings per cell, best indices,
/// winners, Pareto frontier. Exact double equality throughout.
bool identical(const select::ExplorationReport& reference,
               const select::ExplorationReport& merged) {
  if (reference.results.size() != merged.results.size()) return false;
  for (std::size_t p = 0; p < reference.results.size(); ++p) {
    const auto& a = reference.results[p].selection;
    const auto& b = merged.results[p].selection;
    if (a.best_index != b.best_index) return false;
    if (a.candidates.size() != b.candidates.size()) return false;
    for (std::size_t t = 0; t < a.candidates.size(); ++t) {
      const auto& ra = a.candidates[t].result;
      const auto& rb = b.candidates[t].result;
      if (ra.core_to_slot != rb.core_to_slot) return false;
      if (ra.evaluated_mappings != rb.evaluated_mappings) return false;
      const auto& ea = ra.eval;
      const auto& eb = rb.eval;
      if (ea.feasible() != eb.feasible() || ea.cost != eb.cost ||
          ea.avg_switch_hops != eb.avg_switch_hops ||
          ea.avg_path_latency_ns != eb.avg_path_latency_ns ||
          ea.design_area_mm2 != eb.design_area_mm2 ||
          ea.design_power_mw != eb.design_power_mw ||
          ea.max_link_load_mbps != eb.max_link_load_mbps) {
        return false;
      }
    }
  }
  if (reference.winners.size() != merged.winners.size()) return false;
  for (std::size_t w = 0; w < reference.winners.size(); ++w) {
    if (reference.winners[w].point_index != merged.winners[w].point_index ||
        reference.winners[w].topology_index !=
            merged.winners[w].topology_index) {
      return false;
    }
  }
  if (reference.pareto.size() != merged.pareto.size()) return false;
  for (std::size_t i = 0; i < reference.pareto.size(); ++i) {
    if (reference.pareto[i].area_mm2 != merged.pareto[i].area_mm2 ||
        reference.pareto[i].power_mw != merged.pareto[i].power_mw) {
      return false;
    }
  }
  return true;
}

double now_run_sweep_ms(const select::ExplorationRequest& request,
                        const sweep::SweepOptions& options,
                        sweep::SweepResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = sweep::run_sweep(request, options);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int run_probe(bench::Probe& probe) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = grid_request(app, library);

  bench::print_heading(
      "Distributed sweep probe: run_sweep vs in-process explorer "
      "(VOPD, 3 obj x 4 routing x 2 BW, full library)");

  select::DesignSpaceExplorer explorer;
  const auto t0 = std::chrono::steady_clock::now();
  const auto reference = explorer.explore(request);
  const auto t1 = std::chrono::steady_clock::now();
  const double single_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const std::size_t total = reference.results.size();

  // ---- Worker scaling, each merged report checked bit-for-bit. ----
  bool merge_identical = true;
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::vector<double> worker_ms;
  {
    util::Table table({"workers", "wall ms", "speedup vs single"});
    for (const int workers : kWorkerCounts) {
      sweep::SweepOptions options;
      options.num_workers = workers;
      sweep::SweepResult result;
      const double ms = now_run_sweep_ms(request, options, &result);
      merge_identical &= identical(reference, result.report);
      worker_ms.push_back(ms);
      probe.row("worker_scaling", {{"workers", workers},
                                   {"ms", ms},
                                   {"speedup", single_ms / ms}});
      probe.sub_benchmark("workers_" + std::to_string(workers), ms);
      table.add_row({std::to_string(workers), util::Table::num(ms, 1),
                     util::Table::num(single_ms / ms, 2) + "x"});
    }
    std::printf("single-process explore: %.1f ms\n%s", single_ms,
                table.to_string().c_str());
  }
  const double speedup_2w = worker_ms[1] > 0.0 ? single_ms / worker_ms[1] : 0.0;

  // ---- Checkpoint resume: cut the journal in half, resume the rest. ----
  const std::string journal_path = "BENCH_distributed.ckpt";
  bool resume_identical = false;
  std::size_t resume_from_checkpoint = 0;
  std::size_t resume_evaluated = 0;
  {
    sweep::SweepOptions options;
    options.num_workers = 2;
    options.checkpoint_path = journal_path;
    sweep::SweepResult full;
    (void)now_run_sweep_ms(request, options, &full);

    auto contents = sweep::read_journal(journal_path);
    contents.records.resize(contents.records.size() / 2);
    {
      auto writer =
          sweep::JournalWriter::create(journal_path, contents.header);
      for (const auto& record : contents.records) writer.append(record);
      writer.close();
    }

    options.resume = true;
    sweep::SweepResult resumed;
    (void)now_run_sweep_ms(request, options, &resumed);
    resume_from_checkpoint = resumed.stats.points_from_checkpoint;
    resume_evaluated = resumed.stats.points_evaluated;
    resume_identical = identical(reference, resumed.report) &&
                       resume_from_checkpoint == contents.records.size() &&
                       resume_evaluated == total - resume_from_checkpoint;
    std::printf(
        "resume: %zu points from checkpoint + %zu evaluated = %zu total, "
        "bit-identical %s\n",
        resume_from_checkpoint, resume_evaluated, total,
        resume_identical ? "yes" : "NO");
    std::remove(journal_path.c_str());
  }

  probe.wall_ms(worker_ms[1]);
  probe.invariant("merge_bit_identical", merge_identical);
  probe.invariant("resume_bit_identical", resume_identical);
  probe.metric("design_points", total);
  probe.metric("single_process_ms", single_ms);
  probe.metric("hardware_threads", hardware_threads);
  probe.metric("resume_points_from_checkpoint", resume_from_checkpoint);
  int status = probe.finish();
  if (hardware_threads >= 2 && speedup_2w < 1.7) {
    std::fprintf(stderr,
                 "FAIL: 2-worker sweep is only %.2fx the single-process "
                 "explore on a %u-thread machine (need >= 1.7x)\n",
                 speedup_2w, hardware_threads);
    status = 1;
  }
  if (hardware_threads < 2) {
    std::printf(
        "note: %u hardware thread(s); the 2-worker >= 1.7x bar is "
        "informational here (%.2fx measured)\n",
        hardware_threads, speedup_2w);
  }
  return status;
}

void BM_DistributedSweep2Workers(benchmark::State& state) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = grid_request(app, library);
  sweep::SweepOptions options;
  options.num_workers = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep::run_sweep(request, options));
  }
  state.SetLabel("24-point grid, 2 forked workers, merged report");
}
BENCHMARK(BM_DistributedSweep2Workers)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sunmap::bench::Probe probe("distributed", argc, argv);
  const int status = run_probe(probe);
  if (status != 0) return status;
  return sunmap::bench::run_benchmarks(argc, argv);
}
