#include "sweep/wire.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace sunmap::sweep {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Encoded size of a candidate with an empty mapping: two flags, ten
/// doubles and five u32 counts.
constexpr std::size_t kCandidateBytes = 2 + 10 * 8 + 5 * 4;

}  // namespace

std::size_t read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("sweep wire: read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

bool read_claimed(int fd, std::size_t size, std::vector<std::uint8_t>& out) {
  constexpr std::size_t kChunkBytes = 1u << 20;
  out.clear();
  while (out.size() < size) {
    const std::size_t have = out.size();
    const std::size_t want = std::min(kChunkBytes, size - have);
    out.resize(have + want);
    const std::size_t got = read_exact(fd, out.data() + have, want);
    if (got < want) {
      out.resize(have + got);
      return false;
    }
  }
  return true;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) return false;
      throw std::runtime_error(std::string("sweep wire: write failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t crc) {
  static const auto table = make_crc_table();
  crc ^= 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value) {
  out.push_back(value);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  put_u64(out, bits);
}

std::uint8_t PayloadReader::get_u8() {
  if (offset_ + 1 > size_) {
    throw std::runtime_error("sweep wire: payload underrun");
  }
  return data_[offset_++];
}

std::uint32_t PayloadReader::get_u32() {
  if (offset_ + 4 > size_) {
    throw std::runtime_error("sweep wire: payload underrun");
  }
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return value;
}

std::uint64_t PayloadReader::get_u64() {
  if (offset_ + 8 > size_) {
    throw std::runtime_error("sweep wire: payload underrun");
  }
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return value;
}

double PayloadReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::vector<std::uint8_t> encode_point_record(const PointRecord& record) {
  std::vector<std::uint8_t> out;
  put_u64(out, record.point_index);
  put_u32(out, static_cast<std::uint32_t>(record.shard_index));
  put_u32(out, static_cast<std::uint32_t>(record.worker_id));
  put_u32(out, static_cast<std::uint32_t>(record.candidates.size()));
  for (const auto& candidate : record.candidates) {
    put_u8(out, candidate.bandwidth_feasible ? 1 : 0);
    put_u8(out, candidate.area_feasible ? 1 : 0);
    put_f64(out, candidate.max_link_load_mbps);
    put_f64(out, candidate.avg_switch_hops);
    put_f64(out, candidate.avg_path_latency_ns);
    put_f64(out, candidate.design_area_mm2);
    put_f64(out, candidate.design_power_mw);
    put_f64(out, candidate.dynamic_power_mw);
    put_f64(out, candidate.static_power_mw);
    put_f64(out, candidate.switch_area_mm2);
    put_f64(out, candidate.cost);
    put_f64(out, candidate.worst_fault_cost);
    put_u32(out, static_cast<std::uint32_t>(
                     candidate.infeasible_fault_scenarios));
    put_u32(out, static_cast<std::uint32_t>(candidate.fault_scenarios));
    put_u32(out, static_cast<std::uint32_t>(candidate.evaluated_mappings));
    put_u32(out, static_cast<std::uint32_t>(candidate.pruned_mappings));
    put_u32(out, static_cast<std::uint32_t>(candidate.core_to_slot.size()));
    for (const std::int32_t slot : candidate.core_to_slot) {
      put_u32(out, static_cast<std::uint32_t>(slot));
    }
  }
  return out;
}

PointRecord decode_point_record(const std::uint8_t* data, std::size_t size) {
  PayloadReader reader(data, size);
  PointRecord record;
  record.point_index = reader.get_u64();
  record.shard_index = static_cast<std::int32_t>(reader.get_u32());
  record.worker_id = static_cast<std::int32_t>(reader.get_u32());
  const std::uint32_t num_candidates = reader.get_u32();
  if (num_candidates > reader.remaining() / kCandidateBytes) {
    throw std::runtime_error(
        "sweep wire: point record claims " + std::to_string(num_candidates) +
        " candidates in " + std::to_string(reader.remaining()) + " bytes");
  }
  record.candidates.resize(num_candidates);
  for (auto& candidate : record.candidates) {
    candidate.bandwidth_feasible = reader.get_u8() != 0;
    candidate.area_feasible = reader.get_u8() != 0;
    candidate.max_link_load_mbps = reader.get_f64();
    candidate.avg_switch_hops = reader.get_f64();
    candidate.avg_path_latency_ns = reader.get_f64();
    candidate.design_area_mm2 = reader.get_f64();
    candidate.design_power_mw = reader.get_f64();
    candidate.dynamic_power_mw = reader.get_f64();
    candidate.static_power_mw = reader.get_f64();
    candidate.switch_area_mm2 = reader.get_f64();
    candidate.cost = reader.get_f64();
    candidate.worst_fault_cost = reader.get_f64();
    candidate.infeasible_fault_scenarios =
        static_cast<std::int32_t>(reader.get_u32());
    candidate.fault_scenarios = static_cast<std::int32_t>(reader.get_u32());
    candidate.evaluated_mappings = static_cast<std::int32_t>(reader.get_u32());
    candidate.pruned_mappings = static_cast<std::int32_t>(reader.get_u32());
    const std::uint32_t cores = reader.get_u32();
    if (cores > reader.remaining() / 4) {
      throw std::runtime_error(
          "sweep wire: point record claims " + std::to_string(cores) +
          " mapped cores in " + std::to_string(reader.remaining()) +
          " bytes");
    }
    candidate.core_to_slot.resize(cores);
    for (auto& slot : candidate.core_to_slot) {
      slot = static_cast<std::int32_t>(reader.get_u32());
    }
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error("sweep wire: trailing bytes in point record");
  }
  return record;
}

PointRecord record_from_result(const select::PointResult& result,
                               std::size_t index) {
  PointRecord record;
  record.point_index = index;
  record.shard_index = result.shard_index;
  record.worker_id = result.worker_id;
  record.candidates.reserve(result.selection.candidates.size());
  for (const auto& candidate : result.selection.candidates) {
    const auto& eval = candidate.result.eval;
    CandidateScalars scalars;
    scalars.bandwidth_feasible = eval.bandwidth_feasible;
    scalars.area_feasible = eval.area_feasible;
    scalars.max_link_load_mbps = eval.max_link_load_mbps;
    scalars.avg_switch_hops = eval.avg_switch_hops;
    scalars.avg_path_latency_ns = eval.avg_path_latency_ns;
    scalars.design_area_mm2 = eval.design_area_mm2;
    scalars.design_power_mw = eval.design_power_mw;
    scalars.dynamic_power_mw = eval.dynamic_power_mw;
    scalars.static_power_mw = eval.static_power_mw;
    scalars.switch_area_mm2 = eval.switch_area_mm2;
    scalars.cost = eval.cost;
    scalars.worst_fault_cost = eval.worst_fault_cost;
    scalars.infeasible_fault_scenarios = eval.infeasible_fault_scenarios;
    scalars.fault_scenarios =
        static_cast<std::int32_t>(eval.fault_outcomes.size());
    scalars.evaluated_mappings = candidate.result.evaluated_mappings;
    scalars.pruned_mappings = candidate.result.pruned_mappings;
    scalars.core_to_slot.assign(candidate.result.core_to_slot.begin(),
                                candidate.result.core_to_slot.end());
    record.candidates.push_back(std::move(scalars));
  }
  return record;
}

void apply_record(const PointRecord& record, select::PointResult* out) {
  if (record.candidates.size() != out->selection.candidates.size()) {
    throw std::runtime_error(
        "sweep wire: record candidate count does not match the library");
  }
  out->shard_index = record.shard_index;
  out->worker_id = record.worker_id;
  for (std::size_t t = 0; t < record.candidates.size(); ++t) {
    const auto& scalars = record.candidates[t];
    auto& candidate = out->selection.candidates[t];
    auto& eval = candidate.result.eval;
    eval.bandwidth_feasible = scalars.bandwidth_feasible;
    eval.area_feasible = scalars.area_feasible;
    eval.max_link_load_mbps = scalars.max_link_load_mbps;
    eval.avg_switch_hops = scalars.avg_switch_hops;
    eval.avg_path_latency_ns = scalars.avg_path_latency_ns;
    eval.design_area_mm2 = scalars.design_area_mm2;
    eval.design_power_mw = scalars.design_power_mw;
    eval.dynamic_power_mw = scalars.dynamic_power_mw;
    eval.static_power_mw = scalars.static_power_mw;
    eval.switch_area_mm2 = scalars.switch_area_mm2;
    eval.cost = scalars.cost;
    eval.worst_fault_cost = scalars.worst_fault_cost;
    eval.infeasible_fault_scenarios = scalars.infeasible_fault_scenarios;
    // The merged report records the scenario count (the CSV/JSON column)
    // without the per-scenario outcomes themselves: resize with
    // default-constructed entries so fault_outcomes.size() round-trips.
    eval.fault_outcomes.resize(
        static_cast<std::size_t>(scalars.fault_scenarios));
    candidate.result.evaluated_mappings = scalars.evaluated_mappings;
    candidate.result.pruned_mappings = scalars.pruned_mappings;
    candidate.result.core_to_slot.assign(scalars.core_to_slot.begin(),
                                         scalars.core_to_slot.end());
  }
}

bool write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> payload;
  payload.reserve(1 + body.size());
  put_u8(payload, static_cast<std::uint8_t>(type));
  payload.insert(payload.end(), body.begin(), body.end());

  std::vector<std::uint8_t> frame;
  frame.reserve(8 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32(payload.data(), payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return write_all(fd, frame.data(), frame.size());
}

bool read_frame(int fd, MsgType* type, std::vector<std::uint8_t>* body) {
  std::uint8_t header[8];
  const std::size_t got = read_exact(fd, header, sizeof(header));
  if (got == 0) return false;
  if (got < sizeof(header)) {
    throw std::runtime_error("sweep wire: EOF inside frame header");
  }
  PayloadReader reader(header, sizeof(header));
  const std::uint32_t length = reader.get_u32();
  const std::uint32_t expected_crc = reader.get_u32();
  if (length == 0 || length > kMaxFrameBytes) {
    throw std::runtime_error("sweep wire: implausible frame length");
  }
  std::uint8_t type_byte = 0;
  if (read_exact(fd, &type_byte, 1) != 1 ||
      !read_claimed(fd, length - 1, *body)) {
    throw std::runtime_error("sweep wire: EOF inside frame payload");
  }
  if (crc32(body->data(), body->size(), crc32(&type_byte, 1)) !=
      expected_crc) {
    throw std::runtime_error("sweep wire: frame CRC mismatch");
  }
  *type = static_cast<MsgType>(type_byte);
  return true;
}

}  // namespace sunmap::sweep
