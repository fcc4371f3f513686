#include "sweep/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/fault.h"
#include "fplan/floorplanner.h"
#include "model/tech.h"

namespace sunmap::sweep {

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw std::runtime_error("sweep checkpoint: " + what + " " + path + ": " +
                           std::strerror(errno));
}

/// Incremental 64-bit FNV-1a over heterogeneous inputs.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ull;
    }
  }
  void str(const std::string& text) {
    u64(text.size());
    bytes(text.data(), text.size());
  }
  void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

void hash_floorplan_options(Fnv1a& fnv,
                            const fplan::Floorplanner::Options& options);
void hash_fault_set(Fnv1a& fnv, const fault::FaultSet& faults);

void hash_tech(Fnv1a& fnv, const model::TechParams& tech) {
  fnv.f64(tech.feature_um);
  fnv.f64(tech.vdd);
  fnv.i64(tech.flit_width_bits);
  fnv.i64(tech.buffer_depth_flits);
  fnv.f64(tech.area_crossbar_per_bit2);
  fnv.f64(tech.area_buffer_per_bit);
  fnv.f64(tech.area_logic_per_port);
  fnv.f64(tech.area_fixed);
  fnv.f64(tech.energy_fixed_pj);
  fnv.f64(tech.energy_per_port_pj);
  fnv.f64(tech.energy_port2_pj);
  fnv.f64(tech.static_fixed_mw);
  fnv.f64(tech.static_per_port2_mw);
  fnv.f64(tech.link_energy_pj_per_bit_mm);
  fnv.f64(tech.link_delay_ps_per_mm);
  fnv.f64(tech.clock_period_ps);
}

void hash_config(Fnv1a& fnv, const mapping::MapperConfig& config) {
  fnv.str(mapping::to_string(config.objective));
  fnv.str(route::to_string(config.routing));
  fnv.str(mapping::to_string(config.search));
  fnv.f64(config.weights.delay);
  fnv.f64(config.weights.area);
  fnv.f64(config.weights.power);
  fnv.f64(config.link_bandwidth_mbps);
  fnv.f64(config.max_area_mm2);
  fnv.i64(config.swap_passes);
  fnv.i64(config.annealing_iterations);
  fnv.i64(config.annealing_restarts);
  fnv.i64(config.annealing_reheats);
  fnv.i64(config.reroute_passes);
  fnv.u64(config.bound_pruning ? 1 : 0);
  fnv.u64(config.collect_explored ? 1 : 0);
  hash_floorplan_options(fnv, config.floorplan);
  hash_fault_set(fnv, config.faults);
  hash_tech(fnv, config.tech);
}

void hash_floorplan_options(Fnv1a& fnv,
                            const fplan::Floorplanner::Options& options) {
  fnv.str(fplan::to_string(options.engine));
  fnv.i64(options.sizing_passes);
  fnv.f64(options.spacing_mm);
}

void hash_fault_set(Fnv1a& fnv, const fault::FaultSet& faults) {
  fnv.str(fault::describe(faults));
  fnv.i64(static_cast<std::int64_t>(faults.spec.kind));
  fnv.i64(faults.spec.num_scenarios);
  fnv.i64(faults.spec.faults_per_scenario);
  fnv.u64(faults.spec.seed);
  fnv.u64(faults.spec.scenarios.size());
  for (const auto& scenario : faults.spec.scenarios) {
    fnv.u64(scenario.links.size());
    for (const auto& link : scenario.links) {
      fnv.i64(link.a);
      fnv.i64(link.b);
    }
    fnv.u64(scenario.switches.size());
    for (const auto dead : scenario.switches) fnv.i64(dead);
  }
  fnv.str(fault::to_string(faults.aggregation));
  fnv.f64(faults.infeasible_penalty);
}

std::vector<std::uint8_t> encode_header(const JournalHeader& header) {
  std::vector<std::uint8_t> out(std::begin(kJournalMagic),
                                std::end(kJournalMagic));
  put_u32(out, header.version);
  put_u64(out, header.fingerprint);
  put_u32(out, static_cast<std::uint32_t>(header.description.size()));
  out.insert(out.end(), header.description.begin(),
             header.description.end());
  return out;
}

}  // namespace

JournalContents read_journal(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot open", path);
  JournalContents contents;
  try {
    std::uint8_t fixed[8 + 4 + 8 + 4];
    if (read_exact(fd, fixed, sizeof(fixed)) != sizeof(fixed)) {
      throw std::runtime_error("sweep checkpoint: " + path +
                               " is too short to be a sweep journal");
    }
    if (std::memcmp(fixed, kJournalMagic, sizeof(kJournalMagic)) != 0) {
      throw std::runtime_error("sweep checkpoint: " + path +
                               " is not a sweep journal (bad magic)");
    }
    PayloadReader reader(fixed + sizeof(kJournalMagic),
                         sizeof(fixed) - sizeof(kJournalMagic));
    contents.header.version = reader.get_u32();
    if (contents.header.version != kJournalVersion) {
      throw std::runtime_error(
          "sweep checkpoint: " + path + " has journal version " +
          std::to_string(contents.header.version) + "; this build reads " +
          std::to_string(kJournalVersion));
    }
    contents.header.fingerprint = reader.get_u64();
    const std::uint32_t desc_len = reader.get_u32();
    if (desc_len > kMaxFrameBytes) {
      throw std::runtime_error("sweep checkpoint: " + path +
                               " has an implausible description length");
    }
    std::vector<std::uint8_t> description;
    if (!read_claimed(fd, desc_len, description)) {
      throw std::runtime_error("sweep checkpoint: " + path +
                               " ends inside its header");
    }
    contents.header.description.assign(description.begin(),
                                       description.end());
    contents.valid_bytes = sizeof(fixed) + desc_len;

    // Records: absorb whole frames until EOF; any mid-frame EOF or CRC
    // failure marks a crash-torn tail, recovered by stopping at the last
    // whole record.
    for (;;) {
      MsgType type{};
      std::vector<std::uint8_t> body;
      bool ok = false;
      try {
        ok = read_frame(fd, &type, &body);
      } catch (const std::exception&) {
        contents.tail_truncated = true;
        break;
      }
      if (!ok) break;
      if (type != MsgType::kPoint) {
        contents.tail_truncated = true;
        break;
      }
      try {
        contents.records.push_back(
            decode_point_record(body.data(), body.size()));
      } catch (const std::exception&) {
        contents.tail_truncated = true;
        break;
      }
      contents.valid_bytes += 8 + 1 + body.size();
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return contents;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

JournalWriter::~JournalWriter() { close(); }

JournalWriter JournalWriter::create(const std::string& path,
                                    const JournalHeader& header) {
  JournalWriter writer;
  writer.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                      0644);
  if (writer.fd_ < 0) throw_errno("cannot create", path);
  const auto bytes = encode_header(header);
  // A file write never reports EPIPE, so false cannot mean "reader gone".
  if (!write_all(writer.fd_, bytes.data(), bytes.size())) {
    throw_errno("cannot write", path);
  }
  writer.sync();
  return writer;
}

JournalWriter JournalWriter::open_for_append(const std::string& path,
                                             std::uint64_t valid_bytes) {
  JournalWriter writer;
  writer.fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (writer.fd_ < 0) throw_errno("cannot open", path);
  if (::ftruncate(writer.fd_, static_cast<off_t>(valid_bytes)) != 0) {
    throw_errno("cannot truncate damaged tail of", path);
  }
  if (::lseek(writer.fd_, 0, SEEK_END) < 0) {
    throw_errno("cannot seek", path);
  }
  return writer;
}

void JournalWriter::append(const PointRecord& record) {
  if (fd_ < 0) return;
  if (!write_frame(fd_, MsgType::kPoint, encode_point_record(record))) {
    throw std::runtime_error("sweep checkpoint: journal pipe closed");
  }
  sync();
}

void JournalWriter::sync() {
  if (fd_ >= 0) ::fsync(fd_);
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t request_fingerprint(
    const select::ExplorationRequest& request) {
  Fnv1a fnv;
  fnv.str("sunmap-sweep-v1");
  if (request.app != nullptr) {
    const auto& app = *request.app;
    fnv.str(app.name());
    fnv.i64(app.num_cores());
    fnv.i64(app.num_flows());
    for (const auto& commodity : mapping::commodities_by_value(app)) {
      fnv.i64(commodity.src_core);
      fnv.i64(commodity.dst_core);
      fnv.f64(commodity.value_mbps);
    }
  }
  if (request.library != nullptr) {
    fnv.u64(request.library->size());
    for (const auto& topology : *request.library) {
      fnv.str(topology->name());
    }
  }
  hash_config(fnv, request.base);
  fnv.u64(request.objectives.size());
  for (const auto objective : request.objectives) {
    fnv.str(mapping::to_string(objective));
  }
  fnv.u64(request.routings.size());
  for (const auto routing : request.routings) {
    fnv.str(route::to_string(routing));
  }
  fnv.u64(request.link_bandwidths_mbps.size());
  for (const double bw : request.link_bandwidths_mbps) fnv.f64(bw);
  fnv.u64(request.max_areas_mm2.size());
  for (const double area : request.max_areas_mm2) fnv.f64(area);
  fnv.u64(request.searches.size());
  for (const auto search : request.searches) {
    fnv.str(mapping::to_string(search));
  }
  fnv.u64(request.restart_counts.size());
  for (const int restarts : request.restart_counts) fnv.i64(restarts);
  fnv.u64(request.floorplan_options.size());
  for (const auto& options : request.floorplan_options) {
    hash_floorplan_options(fnv, options);
  }
  fnv.u64(request.swap_passes.size());
  for (const int passes : request.swap_passes) fnv.i64(passes);
  fnv.u64(request.fault_sets.size());
  for (const auto& faults : request.fault_sets) {
    hash_fault_set(fnv, faults);
  }
  return fnv.digest();
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

}  // namespace sunmap::sweep
