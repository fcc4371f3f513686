#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "io/exploration_io.h"
#include "mapping/eval_context.h"
#include "select/explorer.h"
#include "sweep/checkpoint.h"
#include "sweep/coordinator.h"
#include "sweep/daemon.h"
#include "sweep/wire.h"
#include "tests/temp_path.h"
#include "topo/library.h"

namespace sunmap::sweep {
namespace {

select::ExplorationRequest figure_request(
    const mapping::CoreGraph& app,
    const std::vector<std::unique_ptr<topo::Topology>>& library) {
  select::ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.objectives = {mapping::Objective::kMinDelay,
                        mapping::Objective::kMinArea,
                        mapping::Objective::kMinPower};
  request.routings.assign(std::begin(route::kAllRoutingKinds),
                          std::end(route::kAllRoutingKinds));
  return request;
}

/// Bit-identity over everything a merged report carries: per-point scalars
/// and mappings in grid order, best indices, winners, and the Pareto
/// frontier. Exact double comparison throughout — the invariant is
/// bit-identical, not approximately equal.
void expect_merged_identical(const select::ExplorationReport& reference,
                             const select::ExplorationReport& merged,
                             const std::string& label) {
  ASSERT_EQ(reference.results.size(), merged.results.size()) << label;
  for (std::size_t p = 0; p < reference.results.size(); ++p) {
    const auto& a = reference.results[p];
    const auto& b = merged.results[p];
    EXPECT_EQ(a.selection.best_index, b.selection.best_index)
        << label << " point " << p;
    ASSERT_EQ(a.selection.candidates.size(), b.selection.candidates.size());
    for (std::size_t t = 0; t < a.selection.candidates.size(); ++t) {
      const auto& ca = a.selection.candidates[t];
      const auto& cb = b.selection.candidates[t];
      const std::string cell =
          label + " point " + std::to_string(p) + " topology " +
          std::to_string(t);
      EXPECT_EQ(ca.topology->name(), cb.topology->name()) << cell;
      EXPECT_EQ(ca.result.core_to_slot, cb.result.core_to_slot) << cell;
      EXPECT_EQ(ca.result.evaluated_mappings, cb.result.evaluated_mappings)
          << cell;
      EXPECT_EQ(ca.result.pruned_mappings, cb.result.pruned_mappings)
          << cell;
      const auto& ea = ca.result.eval;
      const auto& eb = cb.result.eval;
      EXPECT_EQ(ea.bandwidth_feasible, eb.bandwidth_feasible) << cell;
      EXPECT_EQ(ea.area_feasible, eb.area_feasible) << cell;
      EXPECT_EQ(ea.max_link_load_mbps, eb.max_link_load_mbps) << cell;
      EXPECT_EQ(ea.avg_switch_hops, eb.avg_switch_hops) << cell;
      EXPECT_EQ(ea.avg_path_latency_ns, eb.avg_path_latency_ns) << cell;
      EXPECT_EQ(ea.design_area_mm2, eb.design_area_mm2) << cell;
      EXPECT_EQ(ea.design_power_mw, eb.design_power_mw) << cell;
      EXPECT_EQ(ea.dynamic_power_mw, eb.dynamic_power_mw) << cell;
      EXPECT_EQ(ea.static_power_mw, eb.static_power_mw) << cell;
      EXPECT_EQ(ea.switch_area_mm2, eb.switch_area_mm2) << cell;
      EXPECT_EQ(ea.cost, eb.cost) << cell;
      EXPECT_EQ(ea.worst_fault_cost, eb.worst_fault_cost) << cell;
      EXPECT_EQ(ea.infeasible_fault_scenarios,
                eb.infeasible_fault_scenarios)
          << cell;
      EXPECT_EQ(ea.fault_outcomes.size(), eb.fault_outcomes.size()) << cell;
    }
  }
  ASSERT_EQ(reference.winners.size(), merged.winners.size()) << label;
  for (std::size_t w = 0; w < reference.winners.size(); ++w) {
    EXPECT_EQ(reference.winners[w].objective, merged.winners[w].objective);
    EXPECT_EQ(reference.winners[w].point_index, merged.winners[w].point_index)
        << label << " winner " << w;
    EXPECT_EQ(reference.winners[w].topology_index,
              merged.winners[w].topology_index)
        << label << " winner " << w;
  }
  ASSERT_EQ(reference.pareto.size(), merged.pareto.size()) << label;
  for (std::size_t i = 0; i < reference.pareto.size(); ++i) {
    EXPECT_EQ(reference.pareto[i].area_mm2, merged.pareto[i].area_mm2);
    EXPECT_EQ(reference.pareto[i].power_mw, merged.pareto[i].power_mw);
  }
}

TEST(Wire, PointRecordRoundTripsExactly) {
  PointRecord record;
  record.point_index = 42;
  record.shard_index = 3;
  record.worker_id = 1;
  CandidateScalars scalars;
  scalars.bandwidth_feasible = true;
  scalars.cost = 4.9445597092556772;  // A real probe cost, full precision.
  scalars.avg_switch_hops = 1.0 / 3.0;
  scalars.design_area_mm2 = 73.04;
  scalars.evaluated_mappings = 4033;
  scalars.pruned_mappings = 3981;
  scalars.core_to_slot = {3, 1, 0, 2, -1};
  record.candidates = {scalars, CandidateScalars{}};

  const auto bytes = encode_point_record(record);
  const auto decoded = decode_point_record(bytes.data(), bytes.size());
  EXPECT_EQ(decoded.point_index, 42u);
  EXPECT_EQ(decoded.shard_index, 3);
  EXPECT_EQ(decoded.worker_id, 1);
  ASSERT_EQ(decoded.candidates.size(), 2u);
  EXPECT_EQ(decoded.candidates[0].cost, scalars.cost);
  EXPECT_EQ(decoded.candidates[0].avg_switch_hops,
            scalars.avg_switch_hops);
  EXPECT_EQ(decoded.candidates[0].core_to_slot, scalars.core_to_slot);
  EXPECT_EQ(decoded.candidates[0].evaluated_mappings, 4033);
}

TEST(Wire, DecodeRejectsTruncatedPayload) {
  PointRecord record;
  record.candidates.resize(1);
  auto bytes = encode_point_record(record);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(decode_point_record(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(Wire, DecodeRejectsCountsThePayloadCannotHold) {
  // A 20-byte header claiming 8,388,608 candidates: refused by name before
  // any candidate is allocated (each takes at least 102 payload bytes).
  std::vector<std::uint8_t> bytes;
  put_u64(bytes, 0);
  put_u32(bytes, 0);
  put_u32(bytes, 0);
  put_u32(bytes, 8388608u);
  ASSERT_EQ(bytes.size(), 20u);
  try {
    (void)decode_point_record(bytes.data(), bytes.size());
    FAIL() << "expected an implausible candidate count error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("8388608 candidates"),
              std::string::npos)
        << e.what();
  }

  // The same check guards each candidate's mapping.
  PointRecord record;
  record.candidates.resize(1);
  bytes = encode_point_record(record);
  bytes.resize(bytes.size() - 4);
  put_u32(bytes, 1000000u);
  try {
    (void)decode_point_record(bytes.data(), bytes.size());
    FAIL() << "expected an implausible mapping size error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("1000000 mapped cores"),
              std::string::npos)
        << e.what();
  }
}

long peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(Wire, ReadersHoldOnlyTheBytesThatArrive) {
  // An 18-byte frame and a 34-byte journal header, each claiming 60 MiB:
  // both readers grow their buffers as bytes arrive, so each throws its EOF
  // error having held one chunk, never the claim.
  constexpr std::uint32_t kClaim = 60u << 20;
  const long before_kb = peak_rss_kb();

  std::vector<std::uint8_t> frame;
  put_u32(frame, kClaim);
  put_u32(frame, 0);
  frame.insert(frame.end(), 10, 0x10);
  ASSERT_EQ(frame.size(), 18u);
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(write_all(fds[1], frame.data(), frame.size()));
  ::close(fds[1]);
  MsgType type{};
  std::vector<std::uint8_t> body;
  try {
    (void)read_frame(fds[0], &type, &body);
    ADD_FAILURE() << "expected a mid-frame EOF error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("EOF inside frame payload"),
              std::string::npos)
        << e.what();
  }
  ::close(fds[0]);

  std::vector<std::uint8_t> header(std::begin(kJournalMagic),
                                   std::end(kJournalMagic));
  put_u32(header, kJournalVersion);
  put_u64(header, 0);
  put_u32(header, kClaim);
  header.insert(header.end(), 10, 'd');
  ASSERT_EQ(header.size(), 34u);
  const std::string path = testing_util::temp_path("claim.journal");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
  }
  try {
    (void)read_journal(path);
    ADD_FAILURE() << "expected an EOF-in-header error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ends inside its header"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());

  // Holding either claim would raise the peak by 60 MB.
  EXPECT_LT(peak_rss_kb() - before_kb, 16 * 1024);
}

TEST(Sweep, MergedReportBitIdenticalAtEveryWorkerCount) {
  // Two figure workloads (the paper's VOPD and MWD graphs) at worker counts
  // {1, 2, 3}: the merge is bit-identical however the shards interleave.
  struct Workload {
    const char* name;
    mapping::CoreGraph app;
  };
  Workload workloads[] = {{"vopd", apps::vopd()}, {"mwd", apps::mwd()}};
  for (auto& workload : workloads) {
    const auto library = topo::standard_library(workload.app.num_cores());
    const auto request = figure_request(workload.app, library);
    select::DesignSpaceExplorer explorer;
    const auto reference = explorer.explore(request);
    for (const int workers : {1, 2, 3}) {
      SweepOptions options;
      options.num_workers = workers;
      const auto result = run_sweep(request, options);
      EXPECT_EQ(result.stats.points_evaluated, reference.results.size());
      EXPECT_EQ(result.stats.workers_spawned, workers);
      EXPECT_EQ(result.stats.worker_crashes, 0);
      expect_merged_identical(
          reference, result.report,
          std::string(workload.name) + " workers=" + std::to_string(workers));
    }
  }
}

TEST(Sweep, RefusesWorkerCountsAboveTheBound) {
  // A one-point grid: were the check missing, at most one worker forks.
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  select::ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  request.routings = {route::RoutingKind::kDimensionOrdered};
  SweepOptions options;
  options.num_workers = select::kMaxThreads + 1;
  try {
    (void)run_sweep(request, options);
    ADD_FAILURE() << "num_workers " << options.num_workers << " was run";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("got 257"), std::string::npos)
        << e.what();
  }
}

TEST(Sweep, ProvenanceColumnsRecordShardAndWorker) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = figure_request(app, library);
  SweepOptions options;
  options.num_workers = 2;
  const auto result = run_sweep(request, options);
  // One shard per objective run: the three objectives of each routing.
  for (std::size_t p = 0; p < result.report.results.size(); ++p) {
    const auto& point = result.report.results[p];
    EXPECT_EQ(point.shard_index, static_cast<int>(p / 3)) << p;
    EXPECT_GE(point.worker_id, 0);
    EXPECT_LT(point.worker_id, 2);
  }
  // Each worker starts on its own half of the grid: shards 0-1 belong to
  // worker 0, shards 2-3 to worker 1.
  EXPECT_EQ(result.report.results[0].worker_id, 0);
  EXPECT_EQ(result.report.results[6].worker_id, 1);
  const auto csv = io::exploration_report_csv(result.report);
  EXPECT_NE(csv.find("point,shard,worker,routing"), std::string::npos);
  EXPECT_NE(csv.find("0,0,"), std::string::npos);
  const auto json = io::exploration_report_json(result.report);
  EXPECT_NE(json.find("\"shard\": 0"), std::string::npos);
  EXPECT_EQ(json.find("\"shard\": null"), std::string::npos);
}

TEST(Sweep, WorkerCrashRequeuesRemainderOnce) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = figure_request(app, library);
  select::DesignSpaceExplorer explorer;
  const auto reference = explorer.explore(request);

  SweepOptions options;
  options.num_workers = 2;
  // Mid-shard: shard 0 is points [0, 3), worker 0's first.
  options.hooks.crash_at_point = 1;
  const auto result = run_sweep(request, options);
  EXPECT_EQ(result.stats.worker_crashes, 1);
  EXPECT_EQ(result.stats.shards_requeued, 1);
  EXPECT_EQ(result.stats.workers_spawned, 3);
  // Worker 0 sent point 0 and died; only [1, 3) ran again, on worker 2.
  EXPECT_EQ(result.stats.points_evaluated, reference.results.size());
  EXPECT_EQ(result.report.results[0].worker_id, 0);
  EXPECT_EQ(result.report.results[1].worker_id, 2);
  EXPECT_EQ(result.report.results[2].worker_id, 2);
  expect_merged_identical(reference, result.report, "after crash recovery");
}

TEST(Sweep, PersistentCrashFailsWithNamedError) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = figure_request(app, library);
  SweepOptions options;
  options.num_workers = 2;
  options.hooks.crash_at_point = 1;
  options.hooks.crash_persistent = true;
  try {
    (void)run_sweep(request, options);
    FAIL() << "expected a named double-death error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("died twice on shard 0 points [1, 3)"),
              std::string::npos)
        << what;
  }
}

TEST(Sweep, RequestStopInterruptsAndCheckpointResumes) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = figure_request(app, library);
  select::DesignSpaceExplorer explorer;
  const auto reference = explorer.explore(request);
  const std::size_t total = reference.results.size();

  const std::string path =
      testing_util::temp_path("sweep_stop_resume.journal");
  std::remove(path.c_str());

  // Interrupt once the journal holds 3 points, through the same stop flag
  // the CLI's SIGINT handler raises; slowed workers keep the sweep
  // mid-grid while the watcher polls.
  reset_stop();
  std::jthread watcher([&](const std::stop_token& done) {
    while (!done.stop_requested()) {
      try {
        if (read_journal(path).records.size() >= 3) {
          request_stop();
          return;
        }
      } catch (const std::exception&) {
        // No journal, or its header is still being written; keep polling.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  SweepOptions options;
  options.num_workers = 2;
  options.checkpoint_path = path;
  options.hooks.sleep_ms_per_point = 50;
  const auto partial = run_sweep(request, options);
  watcher.request_stop();
  watcher.join();
  reset_stop();
  EXPECT_TRUE(partial.stats.interrupted);
  EXPECT_LT(partial.stats.points_evaluated, total);

  options.hooks.sleep_ms_per_point = 0;
  options.resume = true;
  const auto resumed = run_sweep(request, options);
  EXPECT_FALSE(resumed.stats.interrupted);
  EXPECT_GE(resumed.stats.points_from_checkpoint, 3u);
  // Completed points are never re-evaluated: this run only paid for the
  // remainder.
  EXPECT_EQ(resumed.stats.points_evaluated,
            total - resumed.stats.points_from_checkpoint);
  expect_merged_identical(reference, resumed.report, "after stop+resume");
  std::remove(path.c_str());
}

TEST(Sweep, ExplorerContextPoolSkipsRebuilds) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  auto request = figure_request(app, library);
  select::DesignSpaceExplorer explorer;
  const auto reference = explorer.explore(request);

  select::ExplorerContextPool pool;
  request.context_pool = &pool;
  const auto first = explorer.explore(request);
  const auto built_after_first = mapping::EvalContext::contexts_built();
  const auto second = explorer.explore(request);
  EXPECT_EQ(mapping::EvalContext::contexts_built(), built_after_first)
      << "pooled re-run must rebind, not rebuild";
  expect_merged_identical(reference, first, "pooled first run");
  expect_merged_identical(reference, second, "pooled second run");
}

TEST(Sweep, DaemonServesRepeatRequestsWithLiveContexts) {
  const std::string socket_path =
      testing_util::temp_path("sweep_daemon.sock");
  DaemonOptions options;
  options.socket_path = socket_path;
  options.max_requests = 3;
  reset_stop();
  DaemonStats stats;
  std::thread server([&]() { stats = serve(options); });

  const std::string request_text =
      "app=vopd\nobjectives=delay,area\nroutings=DO,MP\n";
  std::string first;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      first = call_daemon(socket_path, request_text);
      break;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_FALSE(first.empty()) << "daemon never came up";
  const auto built_after_first = mapping::EvalContext::contexts_built();
  const std::string second = call_daemon(socket_path, request_text);
  // Same socket, second request: contexts were rebound, not rebuilt.
  EXPECT_EQ(mapping::EvalContext::contexts_built(), built_after_first);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"winners\""), std::string::npos);

  EXPECT_THROW((void)call_daemon(socket_path, "app=nonesuch\n"),
               std::runtime_error);
  server.join();
  EXPECT_EQ(stats.requests_served, 2);
  EXPECT_EQ(stats.requests_failed, 1);
}

TEST(Sweep, ThreadedDaemonServesConcurrentClients) {
  const std::string socket_path =
      testing_util::temp_path("sweep_daemon_mt.sock");
  DaemonOptions options;
  options.socket_path = socket_path;
  options.max_requests = 4;
  options.accept_threads = 2;
  reset_stop();
  DaemonStats stats;
  std::thread server([&]() { stats = serve(options); });

  const std::string vopd_request = "app=vopd\nobjectives=delay\nroutings=DO\n";
  const std::string pip_request = "app=pip\nobjectives=power\nroutings=MP\n";
  std::string vopd_reference;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      vopd_reference = call_daemon(socket_path, vopd_request);
      break;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_FALSE(vopd_reference.empty()) << "daemon never came up";
  const std::string pip_reference = call_daemon(socket_path, pip_request);

  // Two clients in flight at once, addressing different (app, library)
  // pools, so the accept workers evaluate them concurrently. Replies must
  // match the sequential references bit for bit, and the ticketed budget
  // must close the daemon after exactly max_requests connections.
  std::string vopd_reply;
  std::string pip_reply;
  std::thread first_client(
      [&]() { vopd_reply = call_daemon(socket_path, vopd_request); });
  std::thread second_client(
      [&]() { pip_reply = call_daemon(socket_path, pip_request); });
  first_client.join();
  second_client.join();
  server.join();
  EXPECT_EQ(vopd_reply, vopd_reference);
  EXPECT_EQ(pip_reply, pip_reference);
  EXPECT_EQ(stats.requests_served, 4);
  EXPECT_EQ(stats.requests_failed, 0);
}

/// Connects to a daemon socket, retrying while its listener comes up; -1
/// when it never does.
int connect_when_up(const std::string& socket_path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path.c_str(),
               sizeof(address.sun_path) - 1);
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

TEST(Sweep, SilentClientHoldsTheDaemonForAtMostTheDeadline) {
  const std::string socket_path =
      testing_util::temp_path("sweep_daemon_idle.sock");
  DaemonOptions options;  // One accept thread.
  options.socket_path = socket_path;
  options.max_requests = 2;
  reset_stop();
  DaemonStats stats;
  std::thread server([&]() { stats = serve(options); });

  // The first client connects and never sends; the only accept thread
  // takes it first. The second client's request must still be answered.
  const int silent = connect_when_up(socket_path);
  ASSERT_GE(silent, 0) << "daemon never came up";
  auto reply = std::async(std::launch::async, [&]() {
    return call_daemon(socket_path, "app=pip\nobjectives=delay\nroutings=DO\n");
  });
  const bool answered =
      reply.wait_for(std::chrono::milliseconds(kRequestDeadlineMs + 3000)) ==
      std::future_status::ready;
  EXPECT_TRUE(answered) << "a silent client blocked the daemon";
  if (answered) {
    // The silent client was told why it was dropped.
    std::string text;
    char buffer[256];
    ssize_t n = 0;
    while ((n = ::read(silent, buffer, sizeof(buffer))) > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(text.rfind("ERR ", 0), 0u) << text;
    EXPECT_NE(text.find(std::to_string(kRequestDeadlineMs) + " ms"),
              std::string::npos)
        << text;
  }
  ::close(silent);  // Unblocks a daemon that waits on it regardless.
  EXPECT_NE(reply.get().find("\"winners\""), std::string::npos);
  server.join();
  EXPECT_EQ(stats.requests_served, 1);
  EXPECT_EQ(stats.requests_failed, 1);
}

TEST(Sweep, DaemonRejectsOversizedRequestNamingTheCap) {
  const std::string socket_path =
      testing_util::temp_path("sweep_daemon_cap.sock");
  DaemonOptions options;
  options.socket_path = socket_path;
  options.max_requests = 1;
  reset_stop();
  DaemonStats stats;
  std::thread server([&]() { stats = serve(options); });

  // One line longer than the cap, with no blank terminator inside it.
  const std::string oversized =
      "app=vopd\nobjectives=" + std::string(kMaxRequestBytes, 'x') + "\n";
  std::string error;
  for (int attempt = 0; attempt < 100 && error.empty(); ++attempt) {
    try {
      (void)call_daemon(socket_path, oversized);
      error = "(answered OK)";
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()).find("cannot connect") == std::string::npos) {
        error = e.what();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }
  server.join();
  EXPECT_NE(error.find(std::to_string(kMaxRequestBytes) + " bytes"),
            std::string::npos)
      << error;
  EXPECT_EQ(stats.requests_failed, 1);
}

TEST(Sweep, DaemonRefusesAcceptThreadsOutsideTheBound) {
  // Refused before the socket opens, so no thread starts and no socket
  // file is left behind.
  const std::string socket_path =
      testing_util::temp_path("sweep_daemon_bound.sock");
  for (const int threads : {0, select::kMaxThreads + 1}) {
    DaemonOptions options;
    options.socket_path = socket_path;
    options.accept_threads = threads;
    try {
      (void)serve(options);
      ADD_FAILURE() << "accept_threads " << threads << " was served";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("got " + std::to_string(threads)),
                std::string::npos)
          << e.what();
    }
    EXPECT_NE(::access(socket_path.c_str(), F_OK), 0);
  }
}

}  // namespace
}  // namespace sunmap::sweep
