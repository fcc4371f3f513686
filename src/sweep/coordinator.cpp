#include "sweep/coordinator.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sweep/checkpoint.h"
#include "sweep/wire.h"

namespace sunmap::sweep {

namespace {

/// Lock-free, so request_stop() is safe both in a signal handler and from
/// any thread while the coordinator or the daemon's threads read it.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

/// Seconds between --progress lines.
constexpr double kProgressIntervalS = 1.0;

/// One contiguous range of grid points handed to a worker: a shard's points
/// the checkpoint lacks, or after a crash the unfinished remainder
/// (retried == true).
struct Assignment {
  int shard_index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool retried = false;
};

struct WorkerProc {
  pid_t pid = -1;
  int id = -1;
  int cmd_fd = -1;  ///< Coordinator writes assignments here.
  int res_fd = -1;  ///< Coordinator reads results here.
  bool alive = false;
  bool shutdown_sent = false;
  bool has_assignment = false;
  Assignment assignment;
  /// Next grid index this worker's current assignment should send — the
  /// crash-recovery cut: everything before it already reached the journal.
  std::size_t next_expected = 0;
  std::size_t points_done = 0;
  /// Index of the block of shards this worker owns (a replacement worker
  /// inherits its predecessor's).
  std::size_t block = 0;
};

/// run_sweep ignores SIGPIPE for its duration (workers can die with frames
/// in flight; write() must return EPIPE, not kill the coordinator). The
/// previous disposition is restored on every exit path.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &previous_);
  }
  ~ScopedSigpipeIgnore() { ::sigaction(SIGPIPE, &previous_, nullptr); }
  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  struct sigaction previous_ {};
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

void request_stop() { g_stop = true; }
bool stop_requested() { return g_stop; }
void reset_stop() { g_stop = false; }

SweepResult run_sweep(const select::ExplorationRequest& request,
                      const SweepOptions& options) {
  if (options.num_workers < 1 || options.num_workers > select::kMaxThreads) {
    throw std::invalid_argument("run_sweep: num_workers must be in [1, " +
                                std::to_string(select::kMaxThreads) +
                                "], got " +
                                std::to_string(options.num_workers));
  }
  if (options.resume && options.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "run_sweep: --resume requires a checkpoint path");
  }
  if (request.app == nullptr || request.library == nullptr) {
    throw std::invalid_argument("run_sweep: request has no app or library");
  }
  if (request.sim_finalists > 0 || request.sim_rank) {
    throw std::invalid_argument(
        "run_sweep: --sim-finalists/--sim-rank are incompatible with a "
        "distributed sweep (merged reports carry no routes to simulate); "
        "run the simulation tier in-process");
  }

  const auto& library = *request.library;
  const auto points = select::DesignSpaceExplorer::expand(request);
  const std::size_t total = points.size();

  SweepResult out;
  SweepStats& stats = out.stats;
  stats.total_points = total;
  stats.fingerprint = request_fingerprint(request);

  // ---- Merge scaffolding: the full report skeleton in grid order. ----
  select::ExplorationReport& report = out.report;
  report.results.resize(total);
  for (std::size_t p = 0; p < total; ++p) {
    report.results[p].point = points[p];
    report.results[p].selection.candidates.resize(library.size());
    for (std::size_t t = 0; t < library.size(); ++t) {
      report.results[p].selection.candidates[t].topology = library[t].get();
    }
  }
  std::vector<char> have(total, 0);
  std::size_t have_count = 0;

  // ---- Checkpoint: load (resume) or create, then keep appending. ----
  JournalWriter journal;
  if (!options.checkpoint_path.empty()) {
    if (options.resume) {
      auto contents = read_journal(options.checkpoint_path);
      if (contents.header.fingerprint != stats.fingerprint) {
        throw std::runtime_error(
            "run_sweep: checkpoint " + options.checkpoint_path +
            " was written for request fingerprint " +
            fingerprint_hex(contents.header.fingerprint) +
            " but the current request fingerprints to " +
            fingerprint_hex(stats.fingerprint) + "; refusing to resume");
      }
      for (const auto& record : contents.records) {
        const auto index = static_cast<std::size_t>(record.point_index);
        if (index >= total || have[index] != 0) continue;
        apply_record(record, &report.results[index]);
        have[index] = 1;
        ++have_count;
      }
      stats.points_from_checkpoint = have_count;
      journal = JournalWriter::open_for_append(options.checkpoint_path,
                                               contents.valid_bytes);
    } else {
      JournalHeader header;
      header.fingerprint = stats.fingerprint;
      header.description = options.description;
      journal = JournalWriter::create(options.checkpoint_path, header);
    }
  }

  // ---- Work queue: per shard, the contiguous runs of missing points. ----
  // A shard is one objective run: points that share an evaluation class,
  // and so the metrics cache, of each context.
  const std::size_t shard_points = request.objective_run();
  std::vector<Assignment> queue;
  for (std::size_t i = 0; i < total;) {
    if (have[i] != 0) {
      ++i;
      continue;
    }
    const std::size_t shard = i / shard_points;
    const std::size_t shard_end =
        std::min(total, (shard + 1) * shard_points);
    std::size_t j = i;
    while (j < shard_end && have[j] == 0) ++j;
    queue.push_back(Assignment{static_cast<int>(shard), i, j, false});
    i = j;
  }
  // Each worker owns one contiguous block of the queue and works it in grid
  // order, so neighbouring shards, which share route classes and
  // floorplans, stay on one worker's warm contexts. A worker whose block
  // runs dry takes the last shard of the fullest block, so the few costly
  // points (split-all routing, annealing) do not pin one worker while the
  // others idle.
  const std::size_t num_blocks = std::min<std::size_t>(
      static_cast<std::size_t>(options.num_workers), queue.size());
  std::vector<std::deque<Assignment>> blocks(num_blocks);
  for (std::size_t k = 0; k < queue.size(); ++k) {
    blocks[k * num_blocks / queue.size()].push_back(queue[k]);
  }

  ScopedSigpipeIgnore sigpipe_guard;
  std::deque<WorkerProc> workers;
  WorkerHooks hooks = options.hooks;
  int next_worker_id = 0;

  const auto kill_all = [&]() {
    for (auto& worker : workers) {
      if (!worker.alive) continue;
      ::kill(worker.pid, SIGKILL);
      close_fd(worker.cmd_fd);
      close_fd(worker.res_fd);
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
      worker.alive = false;
    }
  };

  const auto spawn_worker = [&](std::size_t block) -> WorkerProc& {
    int cmd[2] = {-1, -1};
    int res[2] = {-1, -1};
    if (::pipe(cmd) != 0 || ::pipe(res) != 0) {
      throw std::runtime_error("run_sweep: pipe() failed");
    }
    const int id = next_worker_id++;
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("run_sweep: fork() failed");
    }
    if (pid == 0) {
      // Child: drop every descriptor that is not its own pipe ends, so a
      // sibling's EOF detection and the journal's single-writer property
      // survive any interleaving of spawns and crashes.
      ::close(cmd[1]);
      ::close(res[0]);
      if (journal.fd() >= 0) ::close(journal.fd());
      for (const auto& other : workers) {
        if (other.cmd_fd >= 0) ::close(other.cmd_fd);
        if (other.res_fd >= 0) ::close(other.res_fd);
      }
      run_worker_loop(request, id, cmd[0], res[1], hooks);
    }
    ::close(cmd[0]);
    ::close(res[1]);
    WorkerProc worker;
    worker.pid = pid;
    worker.id = id;
    worker.cmd_fd = cmd[1];
    worker.res_fd = res[0];
    worker.alive = true;
    worker.block = block;
    workers.push_back(worker);
    ++stats.workers_spawned;
    return workers.back();
  };

  const auto send_shutdown = [&](WorkerProc& worker) {
    if (!worker.alive || worker.shutdown_sent) return;
    worker.shutdown_sent = true;
    (void)write_frame(worker.cmd_fd, MsgType::kShutdown, {});
    close_fd(worker.cmd_fd);
  };

  // Forward declaration dance: dispatch and the death handler recurse into
  // each other (a dead worker's replacement gets dispatched immediately).
  std::function<void(WorkerProc&)> dispatch;
  std::function<void(WorkerProc&)> on_worker_death;

  dispatch = [&](WorkerProc& worker) {
    if (!worker.alive || worker.has_assignment) return;
    // The front of its own block, else the back of the fullest block.
    auto& own = blocks[worker.block];
    std::deque<Assignment>* from = &own;
    if (own.empty()) {
      for (auto& block : blocks) {
        if (block.size() > from->size()) from = &block;
      }
    }
    if (from->empty()) {
      send_shutdown(worker);
      return;
    }
    const bool stolen = from != &own;
    const Assignment assignment = stolen ? from->back() : from->front();
    if (stolen) {
      from->pop_back();
    } else {
      from->pop_front();
    }
    worker.assignment = assignment;
    worker.has_assignment = true;
    worker.next_expected = assignment.begin;
    std::vector<std::uint8_t> body;
    put_u32(body, static_cast<std::uint32_t>(assignment.shard_index));
    put_u64(body, assignment.begin);
    put_u64(body, assignment.end);
    if (!write_frame(worker.cmd_fd, MsgType::kAssignShard, body)) {
      on_worker_death(worker);
    }
  };

  on_worker_death = [&](WorkerProc& worker) {
    if (!worker.alive) return;
    worker.alive = false;
    close_fd(worker.cmd_fd);
    close_fd(worker.res_fd);
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    if (!worker.has_assignment) return;  // Retired after shutdown: benign.
    worker.has_assignment = false;
    ++stats.worker_crashes;
    const Assignment& assignment = worker.assignment;
    if (worker.next_expected < assignment.end) {
      std::fprintf(stderr,
                   "sweep: worker %d died (status %d) on shard %d points "
                   "[%zu, %zu); re-queueing [%zu, %zu)\n",
                   worker.id, status, assignment.shard_index,
                   assignment.begin, assignment.end, worker.next_expected,
                   assignment.end);
      if (assignment.retried) {
        throw std::runtime_error(
            "run_sweep: worker died twice on shard " +
            std::to_string(assignment.shard_index) + " points [" +
            std::to_string(worker.next_expected) + ", " +
            std::to_string(assignment.end) + "); giving up");
      }
      Assignment retry = assignment;
      retry.begin = worker.next_expected;
      retry.retried = true;
      blocks[worker.block].push_front(retry);
      ++stats.shards_requeued;
    }
    // One recovery knob: unless the test asked for a persistent crash, the
    // re-queued range must succeed on the replacement worker.
    if (!hooks.crash_persistent) hooks.crash_at_point = -1;
    dispatch(spawn_worker(worker.block));
  };

  const auto any_assignment_pending = [&]() {
    for (const auto& block : blocks) {
      if (!block.empty()) return true;
    }
    for (const auto& worker : workers) {
      if (worker.alive && worker.has_assignment) return true;
    }
    return false;
  };

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto last_progress = start;
  const auto print_progress = [&](bool final_line) {
    if (!options.progress) return;
    const auto now = Clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - start).count();
    if (!final_line &&
        std::chrono::duration<double>(now - last_progress).count() <
            kProgressIntervalS) {
      return;
    }
    last_progress = now;
    const double rate =
        elapsed > 0.0 ? static_cast<double>(stats.points_evaluated) / elapsed
                      : 0.0;
    const std::size_t remaining = total - have_count;
    std::string workers_text;
    for (const auto& worker : workers) {
      if (!worker.alive && worker.points_done == 0) continue;
      if (!workers_text.empty()) workers_text += ", ";
      char cell[64];
      std::snprintf(cell, sizeof(cell), "w%d: %.1f p/s", worker.id,
                    elapsed > 0.0
                        ? static_cast<double>(worker.points_done) / elapsed
                        : 0.0);
      workers_text += cell;
    }
    std::fprintf(stderr,
                 "sweep: %zu/%zu points (%.1f%%), %.1f points/s, ETA %.1fs, "
                 "workers [%s]\n",
                 have_count, total,
                 total != 0
                     ? 100.0 * static_cast<double>(have_count) /
                           static_cast<double>(total)
                     : 100.0,
                 rate,
                 rate > 0.0 ? static_cast<double>(remaining) / rate : 0.0,
                 workers_text.c_str());
  };

  try {
    for (std::size_t b = 0; b < num_blocks; ++b) dispatch(spawn_worker(b));

    while (any_assignment_pending()) {
      if (g_stop) {
        stats.interrupted = true;
        break;
      }
      std::vector<pollfd> fds;
      std::vector<WorkerProc*> fd_workers;
      for (auto& worker : workers) {
        if (!worker.alive || worker.res_fd < 0) continue;
        fds.push_back(pollfd{worker.res_fd, POLLIN, 0});
        fd_workers.push_back(&worker);
      }
      if (fds.empty()) break;
      const int ready = ::poll(fds.data(), fds.size(), 200);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("run_sweep: poll() failed");
      }
      for (std::size_t f = 0; f < fds.size(); ++f) {
        if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        WorkerProc& worker = *fd_workers[f];
        if (!worker.alive) continue;
        MsgType type{};
        std::vector<std::uint8_t> body;
        bool ok = false;
        try {
          ok = read_frame(worker.res_fd, &type, &body);
        } catch (const std::exception&) {
          on_worker_death(worker);  // Torn frame == dying worker.
          continue;
        }
        if (!ok) {
          on_worker_death(worker);
          continue;
        }
        switch (type) {
          case MsgType::kPoint: {
            const PointRecord record =
                decode_point_record(body.data(), body.size());
            const auto index =
                static_cast<std::size_t>(record.point_index);
            // An assignment ends at its last index, so a record out of
            // order would end it early and leave points unmerged.
            if (!worker.has_assignment || index != worker.next_expected) {
              throw std::runtime_error(
                  "run_sweep: worker " + std::to_string(worker.id) +
                  " sent point " + std::to_string(record.point_index) +
                  " out of its assignment's order");
            }
            worker.next_expected = index + 1;
            ++worker.points_done;
            // Deal the next shard before the journal's fsync, so the
            // worker does not wait on the disk.
            if (worker.next_expected == worker.assignment.end) {
              worker.has_assignment = false;
              dispatch(worker);
            }
            if (journal.is_open()) journal.append(record);
            apply_record(record, &report.results[index]);
            have[index] = 1;
            ++have_count;
            ++stats.points_evaluated;
            print_progress(false);
            break;
          }
          case MsgType::kError: {
            const std::string message(body.begin(), body.end());
            throw std::runtime_error("run_sweep: worker " +
                                     std::to_string(worker.id) +
                                     " failed: " + message);
          }
          default:
            throw std::runtime_error(
                "run_sweep: unexpected message type from worker " +
                std::to_string(worker.id));
        }
      }
    }

    if (stats.interrupted) {
      // Completed points are already journaled and fsync'd; cut the
      // workers loose and surface the partial state to the caller.
      journal.sync();
      kill_all();
    } else {
      for (auto& worker : workers) send_shutdown(worker);
      for (auto& worker : workers) {
        if (!worker.alive) continue;
        close_fd(worker.res_fd);
        int status = 0;
        ::waitpid(worker.pid, &status, 0);
        worker.alive = false;
      }
    }
  } catch (...) {
    journal.sync();
    kill_all();
    throw;
  }

  print_progress(true);
  // Records arrive in any order; the derived fields are set once, over the
  // whole merged grid in grid order, by the explorer's own rule.
  if (!stats.interrupted) select::finish_report(request, report);
  journal.close();
  return out;
}

}  // namespace sunmap::sweep
