#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "model/tech.h"
#include "select/explorer.h"
#include "sweep/checkpoint.h"
#include "sweep/coordinator.h"
#include "sweep/wire.h"
#include "tests/temp_path.h"
#include "topo/library.h"

namespace sunmap::sweep {
namespace {

select::ExplorationRequest small_request(
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

PointRecord sample_record(std::uint64_t index) {
  PointRecord record;
  record.point_index = index;
  record.shard_index = static_cast<std::int32_t>(index % 3);
  record.worker_id = static_cast<std::int32_t>(index % 2);
  CandidateScalars scalars;
  scalars.bandwidth_feasible = true;
  scalars.area_feasible = true;
  scalars.cost = 1.25 * static_cast<double>(index + 1);
  scalars.core_to_slot = {0, 1, 2, 3};
  record.candidates = {scalars, scalars};
  return record;
}

std::string temp_journal(const char* name) {
  const std::string path = testing_util::temp_path(name);
  std::remove(path.c_str());
  return path;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, JournalRoundTripsHeaderAndRecords) {
  const auto path = temp_journal("journal_roundtrip.ckpt");
  JournalHeader header;
  header.fingerprint = 0x0123456789abcdefULL;
  header.description = "vopd sweep, 12 points";
  {
    auto writer = JournalWriter::create(path, header);
    for (std::uint64_t i = 0; i < 5; ++i) writer.append(sample_record(i));
    writer.close();
  }
  const auto contents = read_journal(path);
  EXPECT_EQ(contents.header.version, kJournalVersion);
  EXPECT_EQ(contents.header.fingerprint, header.fingerprint);
  EXPECT_EQ(contents.header.description, header.description);
  EXPECT_FALSE(contents.tail_truncated);
  ASSERT_EQ(contents.records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(contents.records[i].point_index, i);
    ASSERT_EQ(contents.records[i].candidates.size(), 2u);
    EXPECT_EQ(contents.records[i].candidates[0].cost,
              1.25 * static_cast<double>(i + 1));
    EXPECT_EQ(contents.records[i].candidates[0].core_to_slot,
              (std::vector<std::int32_t>{0, 1, 2, 3}));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedTailRecoversWholeRecords) {
  const auto path = temp_journal("journal_truncated.ckpt");
  {
    auto writer = JournalWriter::create(path, JournalHeader{});
    for (std::uint64_t i = 0; i < 4; ++i) writer.append(sample_record(i));
    writer.close();
  }
  auto bytes = slurp(path);
  const auto intact = read_journal(path);
  ASSERT_EQ(intact.records.size(), 4u);
  // Chop mid-way through the last record: a crash mid-append.
  bytes.resize(bytes.size() - 7);
  dump(path, bytes);

  const auto contents = read_journal(path);
  EXPECT_TRUE(contents.tail_truncated);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_LT(contents.valid_bytes, bytes.size());

  // Appending after recovery truncates the damaged tail first, so the
  // journal reads clean again.
  {
    auto writer =
        JournalWriter::open_for_append(path, contents.valid_bytes);
    writer.append(sample_record(3));
    writer.close();
  }
  const auto repaired = read_journal(path);
  EXPECT_FALSE(repaired.tail_truncated);
  ASSERT_EQ(repaired.records.size(), 4u);
  EXPECT_EQ(repaired.records[3].point_index, 3u);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptTailByteStopsAtLastGoodRecord) {
  const auto path = temp_journal("journal_corrupt.ckpt");
  {
    auto writer = JournalWriter::create(path, JournalHeader{});
    for (std::uint64_t i = 0; i < 3; ++i) writer.append(sample_record(i));
    writer.close();
  }
  auto bytes = slurp(path);
  bytes[bytes.size() - 2] ^= 0x5a;  // Flip a byte inside the last record.
  dump(path, bytes);
  const auto contents = read_journal(path);
  EXPECT_TRUE(contents.tail_truncated);  // CRC catches the damage.
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[1].point_index, 1u);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsForeignMagicAndFutureVersion) {
  const auto path = temp_journal("journal_badheader.ckpt");
  dump(path, {'N', 'O', 'T', 'A', 'J', 'N', 'L', '!', 0, 0, 0, 0});
  EXPECT_THROW((void)read_journal(path), std::runtime_error);

  {
    auto writer = JournalWriter::create(path, JournalHeader{});
    writer.close();
  }
  // Versions 1 to 3 fingerprint other fields (version 4 dropped the
  // settings that became constants and the weight-set axis), so they are
  // refused like a future version.
  for (const char version : {1, 2, 3, 99}) {
    auto bytes = slurp(path);
    bytes[8] = version;  // Version field (little-endian u32 after the magic).
    dump(path, bytes);
    try {
      (void)read_journal(path);
      ADD_FAILURE() << "expected a version error for version "
                    << static_cast<int>(version);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, FingerprintCoversResultAffectingFieldsOnly) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  auto request = small_request(app, library);
  const auto base_print = request_fingerprint(request);

  // Result-neutral knobs must not move the fingerprint: a resume may use a
  // different thread count or pool.
  auto neutral = request;
  neutral.num_threads = 7;
  select::ExplorerContextPool pool;
  neutral.context_pool = &pool;
  EXPECT_EQ(request_fingerprint(neutral), base_print);

  auto different_axis = request;
  different_axis.link_bandwidths_mbps = {400.0, 800.0};
  EXPECT_NE(request_fingerprint(different_axis), base_print);

  auto different_base = request;
  different_base.base.max_area_mm2 = 55.0;
  EXPECT_NE(request_fingerprint(different_base), base_print);

  // Reroute passes change adaptive routes and reheats change annealing
  // walks, so a journal written under another value of either must not
  // resume.
  auto different_reroute = request;
  different_reroute.base.reroute_passes = 0;
  EXPECT_NE(request_fingerprint(different_reroute), base_print);

  auto different_reheats = request;
  different_reheats.base.annealing_reheats = 2;
  EXPECT_NE(request_fingerprint(different_reheats), base_print);

  // Pruning and explored-set collection change each cell's pruned count,
  // and every technology parameter moves areas, powers or delays.
  auto no_pruning = request;
  no_pruning.base.bound_pruning = false;
  EXPECT_NE(request_fingerprint(no_pruning), base_print);
  auto collecting = request;
  collecting.base.collect_explored = true;
  EXPECT_NE(request_fingerprint(collecting), base_print);
  int field = 0;  // Names the field of a failing check, in listed order.
  for (double model::TechParams::*member :
       {&model::TechParams::feature_um, &model::TechParams::vdd,
        &model::TechParams::area_crossbar_per_bit2,
        &model::TechParams::area_buffer_per_bit,
        &model::TechParams::area_logic_per_port,
        &model::TechParams::area_fixed, &model::TechParams::energy_fixed_pj,
        &model::TechParams::energy_per_port_pj,
        &model::TechParams::energy_port2_pj,
        &model::TechParams::static_fixed_mw,
        &model::TechParams::static_per_port2_mw,
        &model::TechParams::link_energy_pj_per_bit_mm,
        &model::TechParams::link_delay_ps_per_mm,
        &model::TechParams::clock_period_ps}) {
    auto different_tech = request;
    different_tech.base.tech.*member *= 4.0;
    EXPECT_NE(request_fingerprint(different_tech), base_print)
        << "double field " << field;
    ++field;
  }
  field = 0;
  for (int model::TechParams::*member :
       {&model::TechParams::flit_width_bits,
        &model::TechParams::buffer_depth_flits}) {
    auto different_tech = request;
    different_tech.base.tech.*member *= 2;
    EXPECT_NE(request_fingerprint(different_tech), base_print)
        << "int field " << field;
    ++field;
  }
}

TEST(Checkpoint, ResumeRejectsMismatchedFingerprintNamingBoth) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = small_request(app, library);
  const auto path = temp_journal("journal_mismatch.ckpt");

  auto other = request;
  other.max_areas_mm2 = {40.0, 80.0};
  JournalHeader header;
  header.fingerprint = request_fingerprint(other);
  JournalWriter::create(path, header).close();

  SweepOptions options;
  options.num_workers = 1;
  options.checkpoint_path = path;
  options.resume = true;
  try {
    (void)run_sweep(request, options);
    FAIL() << "expected a fingerprint mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    // The message names BOTH fingerprints, so the operator can tell which
    // request the journal belongs to.
    EXPECT_NE(what.find(fingerprint_hex(header.fingerprint)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(fingerprint_hex(request_fingerprint(request))),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("refusing to resume"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, SigkillMidSweepResumesBitIdentically) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  const auto request = small_request(app, library);
  select::DesignSpaceExplorer explorer;
  const auto reference = explorer.explore(request);
  const std::size_t total = reference.results.size();
  const auto path = temp_journal("journal_sigkill.ckpt");

  // A coordinator in a child process, workers slowed so the parent can
  // SIGKILL it mid-grid — the whole process tree dies with frames and
  // journal appends in flight.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    SweepOptions options;
    options.num_workers = 2;
    options.checkpoint_path = path;
    options.hooks.sleep_ms_per_point = 150;
    try {
      (void)run_sweep(request, options);
    } catch (...) {
    }
    _exit(0);
  }
  // Wait until at least one whole record hit the journal (read_journal
  // tolerates a mid-append tail), then kill the coordinator cold.
  for (int i = 0; i < 600; ++i) {
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0 && st.st_size > 0) {
      try {
        if (!read_journal(path).records.empty()) break;
      } catch (const std::exception&) {
        // Header still being written; keep waiting.
      }
    }
    ::usleep(20 * 1000);
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));

  const auto contents = read_journal(path);
  ASSERT_GE(contents.records.size(), 1u);
  ASSERT_LT(contents.records.size(), total);

  SweepOptions options;
  options.num_workers = 2;
  options.checkpoint_path = path;
  options.resume = true;
  const auto resumed = run_sweep(request, options);
  EXPECT_FALSE(resumed.stats.interrupted);
  EXPECT_GE(resumed.stats.points_from_checkpoint, 1u);
  // Nothing already journaled is re-evaluated.
  EXPECT_EQ(resumed.stats.points_evaluated,
            total - resumed.stats.points_from_checkpoint);

  // The resumed report is bit-identical to the single-process explorer:
  // same best indices, same winners, same Pareto frontier, same scalars.
  ASSERT_EQ(resumed.report.results.size(), total);
  for (std::size_t p = 0; p < total; ++p) {
    const auto& a = reference.results[p];
    const auto& b = resumed.report.results[p];
    EXPECT_EQ(a.selection.best_index, b.selection.best_index) << p;
    for (std::size_t t = 0; t < a.selection.candidates.size(); ++t) {
      EXPECT_EQ(a.selection.candidates[t].result.eval.cost,
                b.selection.candidates[t].result.eval.cost)
          << p << "/" << t;
      EXPECT_EQ(a.selection.candidates[t].result.core_to_slot,
                b.selection.candidates[t].result.core_to_slot)
          << p << "/" << t;
    }
  }
  ASSERT_EQ(resumed.report.winners.size(), reference.winners.size());
  for (std::size_t w = 0; w < reference.winners.size(); ++w) {
    EXPECT_EQ(resumed.report.winners[w].point_index,
              reference.winners[w].point_index);
    EXPECT_EQ(resumed.report.winners[w].topology_index,
              reference.winners[w].topology_index);
  }
  ASSERT_EQ(resumed.report.pareto.size(), reference.pareto.size());
  for (std::size_t i = 0; i < reference.pareto.size(); ++i) {
    EXPECT_EQ(resumed.report.pareto[i].area_mm2,
              reference.pareto[i].area_mm2);
    EXPECT_EQ(resumed.report.pareto[i].power_mw,
              reference.pareto[i].power_mw);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sunmap::sweep
