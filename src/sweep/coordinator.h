#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "select/explorer.h"
#include "sweep/worker.h"

namespace sunmap::sweep {

/// How run_sweep() distributes one exploration request.
struct SweepOptions {
  /// Worker child processes forked off the coordinator, in
  /// [1, select::kMaxThreads]. Each binds its own per-topology context pool
  /// and sends each point back over a pipe as soon as it is explored.
  int num_workers = 2;
  /// Append-only journal of completed points (see checkpoint.h). Empty
  /// disables checkpointing.
  std::string checkpoint_path;
  /// Resume from checkpoint_path instead of starting fresh: completed
  /// points are folded in from the journal and only the remainder is
  /// assigned to workers. The journal's request fingerprint must match.
  bool resume = false;
  /// Progress lines on stderr once a second (points done/total, rate, ETA,
  /// per-worker throughput).
  bool progress = false;
  /// Free-form tag recorded in a fresh journal's header.
  std::string description;
  /// Failure-injection knobs for the crash/kill tests (inherited by the
  /// workers at fork time).
  WorkerHooks hooks;
};

/// What a sweep did, alongside the merged report.
struct SweepStats {
  std::size_t total_points = 0;
  /// Points evaluated by workers in THIS run — a resumed sweep evaluates
  /// only total_points - points_from_checkpoint of them, which is how the
  /// kill/resume test asserts completed points were not re-evaluated.
  std::size_t points_evaluated = 0;
  std::size_t points_from_checkpoint = 0;
  int workers_spawned = 0;
  int worker_crashes = 0;
  int shards_requeued = 0;
  /// True when request_stop() ended the sweep early; the report then holds
  /// the points merged so far, without best indices, winners or Pareto
  /// frontier, and the checkpoint holds every completed point.
  bool interrupted = false;
  std::uint64_t fingerprint = 0;
};

struct SweepResult {
  select::ExplorationReport report;
  SweepStats stats;
};

/// Runs `request` across worker processes, merges the per-point scalars
/// they send back, and finishes the merged report once with
/// select::finish_report(), so it is bit-identical (winners, Pareto
/// frontier, per-point scalars in grid order) to single-process
/// DesignSpaceExplorer::explore() at any worker count and interleaving.
///
/// The grid is cut into shards of one objective run each
/// (request.objective_run() points that differ only in objective), so
/// point p belongs to shard p / objective_run(). Each worker owns a
/// contiguous block of shards and works it in grid order; a worker whose
/// block is empty takes the last shard of the fullest block. Merged
/// evaluations carry scalars and mappings only — floorplan geometry and
/// route sets stay in the workers — so ExplorationReport::winner()
/// floorplan rendering is a single-process-mode feature.
///
/// Worker crashes re-queue the lost remainder of the shard once; a second
/// death on the same range throws std::runtime_error naming the shard and
/// point range. A checkpoint fingerprint mismatch throws std::runtime_error
/// naming both fingerprints.
[[nodiscard]] SweepResult run_sweep(const select::ExplorationRequest& request,
                                    const SweepOptions& options);

/// Stop request, safe in a signal handler and from any thread: the
/// coordinator finishes absorbing what already arrived, flushes the
/// checkpoint journal, reaps its workers, and returns with
/// stats.interrupted set. Wire it to SIGINT in a CLI handler.
void request_stop();
[[nodiscard]] bool stop_requested();
void reset_stop();

}  // namespace sunmap::sweep
