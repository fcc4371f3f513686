#pragma once

#include "select/explorer.h"

namespace sunmap::sweep {

/// Deterministic failure-injection and pacing knobs threaded through
/// SweepOptions into the worker child processes — how the crash-recovery
/// and kill/resume tests stage their scenarios without timing races.
struct WorkerHooks {
  /// Global grid index at which a worker calls _exit(42) instead of
  /// sending the point — a mid-shard crash. -1 disables.
  int crash_at_point = -1;
  /// When false (default) the coordinator clears crash_at_point before
  /// spawning the replacement worker, so the retried shard succeeds; true
  /// keeps the bomb armed and the retry dies too (the named-error path).
  bool crash_persistent = false;
  /// Sleep this long before sending each point — widens the window a
  /// kill/resume test needs to SIGKILL a sweep that is provably mid-grid.
  int sleep_ms_per_point = 0;
};

/// Body of a sweep worker child process; never returns (every exit path is
/// _exit, so the child skips the parent's static destructors). Expands the
/// request's grid once, then reads kAssignShard frames from cmd_fd and
/// explores each assigned [begin, end) range one point at a time: a
/// one-point request (base = the point's config, no axes, the request's
/// num_threads) on one ExplorerContextPool that persists across every
/// assignment this worker serves. Writes a kPoint frame to res_fd after
/// each point; the coordinator counts a range done at its last point.
/// Exits 0 on kShutdown or cmd EOF, 1 after sending kError for a fatal
/// exception, 3 when the coordinator vanished mid-write (EPIPE).
[[noreturn]] void run_worker_loop(const select::ExplorationRequest& request,
                                  int worker_id, int cmd_fd, int res_fd,
                                  const WorkerHooks& hooks);

}  // namespace sunmap::sweep
