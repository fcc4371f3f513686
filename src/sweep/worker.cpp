#include "sweep/worker.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "sweep/wire.h"

namespace sunmap::sweep {

namespace {

/// Best-effort kError to the coordinator; the worker is about to _exit, so
/// a vanished reader (EPIPE) is simply ignored.
void send_error(int res_fd, const std::string& message) {
  std::vector<std::uint8_t> body;
  body.reserve(message.size());
  for (const char c : message) {
    body.push_back(static_cast<std::uint8_t>(c));
  }
  (void)write_frame(res_fd, MsgType::kError, body);
}

}  // namespace

void run_worker_loop(const select::ExplorationRequest& request,
                     int worker_id, int cmd_fd, int res_fd,
                     const WorkerHooks& hooks) {
  // One pool for the worker's lifetime: every point this worker explores
  // rebinds the same per-topology contexts instead of rebuilding them, so
  // each context sees the build-then-rebind sequence of a whole-grid
  // explore() over the same points.
  select::ExplorerContextPool pool;
  select::DesignSpaceExplorer explorer;
  select::ExplorationRequest one_point;
  one_point.app = request.app;
  one_point.library = request.library;
  one_point.num_threads = request.num_threads;
  one_point.context_pool = &pool;
  try {
    const auto points = select::DesignSpaceExplorer::expand(request);
    for (;;) {
      MsgType type{};
      std::vector<std::uint8_t> body;
      if (!read_frame(cmd_fd, &type, &body)) _exit(0);
      if (type == MsgType::kShutdown) _exit(0);
      if (type != MsgType::kAssignShard) {
        send_error(res_fd, "sweep worker: unexpected message type " +
                               std::to_string(static_cast<int>(type)));
        _exit(1);
      }
      PayloadReader reader(body.data(), body.size());
      const std::int32_t shard_index =
          static_cast<std::int32_t>(reader.get_u32());
      const std::uint64_t begin = reader.get_u64();
      const std::uint64_t end =
          std::min<std::uint64_t>(reader.get_u64(), points.size());

      for (std::uint64_t index = begin; index < end; ++index) {
        one_point.base = points[index].config;
        const auto report = explorer.explore(one_point);
        if (hooks.sleep_ms_per_point > 0) {
          ::usleep(static_cast<useconds_t>(hooks.sleep_ms_per_point) * 1000);
        }
        if (hooks.crash_at_point >= 0 &&
            index == static_cast<std::uint64_t>(hooks.crash_at_point)) {
          _exit(42);
        }
        PointRecord record = record_from_result(
            report.results.front(), static_cast<std::size_t>(index));
        record.shard_index = shard_index;
        record.worker_id = worker_id;
        if (!write_frame(res_fd, MsgType::kPoint,
                         encode_point_record(record))) {
          // Coordinator is gone; an orphaned worker must not keep burning
          // CPU on a sweep nobody will merge.
          _exit(3);
        }
      }
    }
  } catch (const std::exception& e) {
    send_error(res_fd, e.what());
    _exit(1);
  } catch (...) {
    send_error(res_fd, "sweep worker: unknown fatal error");
    _exit(1);
  }
  _exit(1);
}

}  // namespace sunmap::sweep
