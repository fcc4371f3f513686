#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "select/explorer.h"

namespace sunmap::sweep {

/// Message types of the coordinator <-> worker pipe protocol and the
/// checkpoint journal. Every message travels as one frame:
///
///   [u32 payload_len][u32 crc32(payload)][payload]
///
/// little-endian, payload starting with the u8 message type. Doubles cross
/// the wire as their raw IEEE-754 bit patterns, so a scalar on the wire is
/// the exact double the worker computed — the bit-identity invariant of the
/// merge layer depends on this.
enum class MsgType : std::uint8_t {
  // coordinator -> worker
  kAssignShard = 1,  ///< u32 shard_index, u64 begin, u64 end (grid range).
  kShutdown = 2,     ///< No payload; worker exits 0.
  // worker -> coordinator
  kPoint = 16,  ///< PointRecord (below); the range's last one ends it.
  kError = 18,  ///< UTF-8 what() of the worker's fatal exception.
};

/// The result scalars of one (point, topology) cell — everything the merge
/// layer needs to reconstruct the cell's Evaluation for winner/Pareto/report
/// purposes (floorplan geometry and route sets stay worker-local; see
/// README "Distributed sweeps").
struct CandidateScalars {
  bool bandwidth_feasible = false;
  bool area_feasible = false;
  double max_link_load_mbps = 0.0;
  double avg_switch_hops = 0.0;
  double avg_path_latency_ns = 0.0;
  double design_area_mm2 = 0.0;
  double design_power_mw = 0.0;
  double dynamic_power_mw = 0.0;
  double static_power_mw = 0.0;
  double switch_area_mm2 = 0.0;
  double cost = 0.0;
  double worst_fault_cost = 0.0;
  std::int32_t infeasible_fault_scenarios = 0;
  std::int32_t fault_scenarios = 0;
  std::int32_t evaluated_mappings = 0;
  std::int32_t pruned_mappings = 0;
  std::vector<std::int32_t> core_to_slot;
};

/// One completed design point: its grid index, distributed provenance, and
/// the scalars of every library candidate (in library order). This is both
/// the kPoint payload and the checkpoint journal record.
struct PointRecord {
  std::uint64_t point_index = 0;
  std::int32_t shard_index = -1;
  std::int32_t worker_id = -1;
  std::vector<CandidateScalars> candidates;
};

/// CRC-32 (IEEE 802.3 polynomial) over a byte range; `crc` continues the
/// CRC of earlier bytes, so crc32(b, crc32(a)) is the CRC of a then b.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                                  std::uint32_t crc = 0);

// ---- Payload encoding -----------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value);
void put_f64(std::vector<std::uint8_t>& out, double value);

/// Bounds-checked little-endian reader over a payload; every get_* throws
/// std::runtime_error on underrun, so a corrupt payload can never read past
/// its buffer.
class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::size_t remaining() const { return size_ - offset_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

/// Serializes a PointRecord (without the leading message-type byte).
[[nodiscard]] std::vector<std::uint8_t> encode_point_record(
    const PointRecord& record);

/// Parses the encode_point_record layout; throws std::runtime_error on a
/// malformed payload. Each claimed count is checked against the bytes left
/// before anything is allocated for it, so a short payload cannot claim
/// memory it does not carry.
[[nodiscard]] PointRecord decode_point_record(const std::uint8_t* data,
                                              std::size_t size);

/// Extracts the scalars a worker sends for one explorer result (point `index` of
/// the grid) into a wire record.
[[nodiscard]] PointRecord record_from_result(
    const select::PointResult& result, std::size_t index);

/// Writes a record's scalars back into a PointResult whose candidates are
/// already sized and topology-bound (the merge layer prepares those from
/// the coordinator's own library). best_index is NOT set here —
/// select::finish_report() derives it once the merge completes, so the rule
/// lives in exactly one place.
void apply_record(const PointRecord& record, select::PointResult* out);

// ---- Framed pipe I/O ------------------------------------------------------

/// read() until `size` bytes arrived or EOF, retrying EINTR; returns the
/// bytes read (short only at EOF). Throws std::runtime_error on an error.
std::size_t read_exact(int fd, std::uint8_t* data, std::size_t size);

/// Reads the `size` bytes a header claims into `out`, replacing its
/// contents and growing it one bounded chunk at a time as the bytes arrive,
/// so an input that claims more than it carries never allocates the claim.
/// Returns false at EOF before `size` bytes; throws std::runtime_error on
/// a read error.
bool read_claimed(int fd, std::size_t size, std::vector<std::uint8_t>& out);

/// write() until all `size` bytes are out, retrying EINTR and partial
/// writes. Returns false on EPIPE (the reader is gone); throws
/// std::runtime_error on any other error.
bool write_all(int fd, const std::uint8_t* data, std::size_t size);

/// Writes one frame to fd, retrying on EINTR and partial writes. Returns
/// false when the reader is gone (EPIPE) — how an orphaned worker learns
/// its coordinator died — and throws std::runtime_error on any other error.
bool write_frame(int fd, MsgType type, const std::vector<std::uint8_t>& body);

/// Reads one whole frame from fd (blocking). Returns false on clean EOF
/// before any byte of a frame; throws std::runtime_error on mid-frame EOF,
/// CRC mismatch, or an oversized length prefix. On success *type holds the
/// leading message type and *body the rest of the payload.
bool read_frame(int fd, MsgType* type, std::vector<std::uint8_t>* body);

/// Frame length-prefix sanity bound: no legitimate message approaches this.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

}  // namespace sunmap::sweep
