#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "select/explorer.h"
#include "sweep/wire.h"

namespace sunmap::sweep {

/// Checkpoint journal format (version 4):
///
///   [8B magic "SWEEPJNL"][u32 version][u64 request fingerprint]
///   [u32 description length][description bytes]
///   then zero or more kPoint frames (wire.h framing), one per completed
///   design point, appended and fsync'd as the coordinator receives them.
///
/// The journal is append-only: resume reads every whole frame, stops at the
/// first truncated or corrupt one (a crash mid-append), truncates the file
/// back to the last whole record, and continues appending. The fingerprint
/// binds the journal to one exploration request; a resume against a
/// different request is rejected, never silently merged.
inline constexpr char kJournalMagic[8] = {'S', 'W', 'E', 'E',
                                          'P', 'J', 'N', 'L'};
/// Version 2 added split_chunks and annealing_chain_move_prob to the
/// fingerprint, version 3 the technology parameters, bound_pruning and
/// collect_explored, and version 4 dropped the settings that became
/// constants (the annealing schedule, split_chunks, the weight reference
/// scales, the aspect bounds, fault weights) and the weight-set axis, so an
/// older journal's fingerprint covers different fields.
inline constexpr std::uint32_t kJournalVersion = 4;

struct JournalHeader {
  std::uint32_t version = kJournalVersion;
  std::uint64_t fingerprint = 0;
  std::string description;
};

/// Everything read_journal() recovers from an existing checkpoint.
struct JournalContents {
  JournalHeader header;
  std::vector<PointRecord> records;
  /// Offset of the first byte past the last whole record — where appending
  /// resumes after truncating a damaged tail.
  std::uint64_t valid_bytes = 0;
  /// True when a partial or corrupt trailing record was dropped.
  bool tail_truncated = false;
};

/// Parses a checkpoint journal. Throws std::runtime_error when the file
/// cannot be opened or its header is not a supported sweep journal; a
/// damaged record tail is NOT an error (tail_truncated reports it).
[[nodiscard]] JournalContents read_journal(const std::string& path);

/// Append-only journal writer; every append() writes one frame and fsyncs,
/// so a completed point survives any later crash.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Creates (truncating any previous file) a fresh journal with the given
  /// header. Throws std::runtime_error on I/O errors.
  static JournalWriter create(const std::string& path,
                              const JournalHeader& header);

  /// Re-opens an existing journal for appending, first truncating it to
  /// `valid_bytes` (from read_journal) so a damaged tail never precedes new
  /// records. Throws std::runtime_error on I/O errors.
  static JournalWriter open_for_append(const std::string& path,
                                       std::uint64_t valid_bytes);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  /// Raw descriptor — what a forked worker closes so the journal has
  /// exactly one writer.
  [[nodiscard]] int fd() const { return fd_; }
  void append(const PointRecord& record);
  /// fsync; append() already syncs per record, this is for explicit
  /// flush-on-interrupt call sites that want to state the intent.
  void sync();
  void close();

 private:
  int fd_ = -1;
};

/// FNV-1a digest of every result-affecting field of an exploration request:
/// the application (name, cores, commodities), the topology library, every
/// sweep axis, and the base configuration (objective/routing/search,
/// constraints, weights, annealing budget, restarts and reheats, reroute
/// passes, bound pruning, explored-set collection, floorplan options, fault
/// set, technology parameters).
/// Deliberately excluded: thread counts and context pools — neither changes
/// any result bit, so a resume may vary them freely — and the sim_* fields,
/// since run_sweep rejects the sim tier.
[[nodiscard]] std::uint64_t request_fingerprint(
    const select::ExplorationRequest& request);

/// Fixed-width lowercase hex of a fingerprint, for error messages and the
/// resume command line.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

}  // namespace sunmap::sweep
