// Seeded mutation fuzzing of the sweep's decoders: point-record payloads,
// framed messages through read_frame, and checkpoint journals through
// read_journal. Every mutated input must either decode or throw
// std::runtime_error; the ASan+UBSan build also holds each run to no
// out-of-bounds read, overflow or leak. Mutations are byte flips,
// truncations and splices with a second corpus entry, 10,000 per target
// from a fixed seed, so a failure reproduces exactly.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/checkpoint.h"
#include "sweep/wire.h"
#include "tests/fuzz_mutator.h"

namespace sunmap::sweep {
namespace {

using fuzz::Bytes;
using fuzz::Mutator;

constexpr int kMutations = 10000;

/// A journal header or nothing, then zero or more frame payloads (message
/// type byte first): the shape both the pipe and the journal carry.
struct Framed {
  Bytes prefix;
  std::vector<Bytes> payloads;
};

Bytes frame(const Bytes& payload) {
  Bytes out;
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Bytes serialize(const Framed& input) {
  Bytes out = input.prefix;
  for (const auto& payload : input.payloads) {
    const Bytes framed = frame(payload);
    out.insert(out.end(), framed.begin(), framed.end());
  }
  return out;
}

/// Half the time mutates the raw bytes, so framing and CRC checks see the
/// damage; otherwise mutates one part (prefix or one payload) and re-frames
/// every payload with a valid length and CRC, so the damage reaches the
/// decoders behind the frame layer.
Bytes mutate(Mutator& mutator, const Framed& input, const Framed& donor) {
  if (mutator.below(2) == 0) {
    return mutator.mutate(serialize(input), serialize(donor));
  }
  Framed out = input;
  const std::size_t part = mutator.below(out.payloads.size() + 1);
  if (part == out.payloads.size()) {
    out.prefix = mutator.mutate(out.prefix, donor.prefix);
  } else {
    const Bytes& other =
        donor.payloads.empty()
            ? donor.prefix
            : donor.payloads[mutator.below(donor.payloads.size())];
    out.payloads[part] = mutator.mutate(out.payloads[part], other);
    if (out.payloads[part].empty()) out.payloads[part].push_back(0);
  }
  return serialize(out);
}

/// Valid point records of assorted shapes: no candidates, empty and full
/// mappings, negative slots, extreme doubles.
std::vector<PointRecord> record_corpus() {
  std::vector<PointRecord> corpus;
  std::mt19937_64 rng(7);
  for (int shape = 0; shape < 6; ++shape) {
    PointRecord record;
    record.point_index = rng() % 1000;
    record.shard_index = static_cast<std::int32_t>(record.point_index / 3);
    record.worker_id = shape % 3;
    record.candidates.resize(static_cast<std::size_t>(shape));
    for (auto& candidate : record.candidates) {
      candidate.bandwidth_feasible = (rng() & 1) != 0;
      candidate.area_feasible = (rng() & 1) != 0;
      candidate.cost = static_cast<double>(rng() % 10000) / 7.0;
      candidate.design_power_mw = 1e300;
      candidate.worst_fault_cost = -0.0;
      candidate.evaluated_mappings = static_cast<std::int32_t>(rng() % 5000);
      candidate.fault_scenarios = static_cast<std::int32_t>(rng() % 40);
      for (std::uint64_t core = rng() % 17; core > 0; --core) {
        candidate.core_to_slot.push_back(
            static_cast<std::int32_t>(rng() % 20) - 1);
      }
    }
    corpus.push_back(std::move(record));
  }
  return corpus;
}

Bytes typed(MsgType type, const Bytes& body) {
  Bytes payload;
  payload.reserve(1 + body.size());
  put_u8(payload, static_cast<std::uint8_t>(type));
  payload.insert(payload.end(), body.begin(), body.end());
  return payload;
}

/// Runs `decode` on one input; true when it decoded, false when it threw
/// std::runtime_error. Any other exception fails the test.
template <typename Decode>
bool decodes(Decode&& decode, int mutation) {
  try {
    decode();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutation " << mutation << " threw " << e.what();
    return false;
  }
}

TEST(SweepFuzz, PointRecordPayloads) {
  std::vector<Bytes> corpus;
  for (const auto& record : record_corpus()) {
    corpus.push_back(encode_point_record(record));
  }
  Mutator mutator(0x5EED0001);
  int decoded = 0;
  for (int m = 0; m < kMutations; ++m) {
    const Bytes input = mutator.mutate(corpus[mutator.below(corpus.size())],
                                       corpus[mutator.below(corpus.size())]);
    decoded += decodes(
        [&]() { (void)decode_point_record(input.data(), input.size()); }, m);
  }
  // Both outcomes occur, so the mutations neither all miss nor all break
  // the layout.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutations);
}

TEST(SweepFuzz, FramedMessagesThroughReadFrame) {
  const auto records = record_corpus();
  std::vector<Framed> corpus;
  for (std::size_t i = 0; i < records.size(); ++i) {
    Framed stream;
    stream.payloads.push_back(
        typed(MsgType::kPoint, encode_point_record(records[i])));
    if (i % 2 == 0) {
      Bytes assign;
      put_u32(assign, 2);
      put_u64(assign, 6);
      put_u64(assign, 9);
      stream.payloads.push_back(typed(MsgType::kAssignShard, assign));
    }
    if (i % 3 == 0) {
      stream.payloads.push_back(
          typed(MsgType::kError, Bytes{'b', 'o', 'o', 'm'}));
    }
    corpus.push_back(std::move(stream));
  }
  Mutator mutator(0x5EED0002);
  int decoded = 0;
  for (int m = 0; m < kMutations; ++m) {
    const Bytes input = mutate(mutator, corpus[mutator.below(corpus.size())],
                               corpus[mutator.below(corpus.size())]);
    // Far below the pipe buffer, so the whole stream is written before the
    // first read.
    ASSERT_LT(input.size(), 16384u);
    int fds[2] = {-1, -1};
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_TRUE(write_all(fds[1], input.data(), input.size()));
    ::close(fds[1]);
    decoded += decodes(
        [&]() {
          MsgType type{};
          Bytes body;
          while (read_frame(fds[0], &type, &body)) {
            // kPoint bodies are the ones with a decoder of their own.
            if (type == MsgType::kPoint) {
              (void)decode_point_record(body.data(), body.size());
            }
          }
        },
        m);
    ::close(fds[0]);
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutations);
}

TEST(SweepFuzz, JournalFilesThroughReadJournal) {
  const auto records = record_corpus();
  std::vector<Framed> corpus;
  for (std::size_t count = 0; count <= 4; ++count) {
    Framed journal;
    journal.prefix.assign(std::begin(kJournalMagic), std::end(kJournalMagic));
    put_u32(journal.prefix, kJournalVersion);
    put_u64(journal.prefix, 0x0123456789ABCDEFull + count);
    const std::string description = "fuzz journal " + std::to_string(count);
    put_u32(journal.prefix, static_cast<std::uint32_t>(description.size()));
    journal.prefix.insert(journal.prefix.end(), description.begin(),
                          description.end());
    for (std::size_t r = 0; r < count; ++r) {
      journal.payloads.push_back(
          typed(MsgType::kPoint, encode_point_record(records[r + 1])));
    }
    corpus.push_back(std::move(journal));
  }
  const std::string path = testing::TempDir() + "sweep_fuzz.journal";
  Mutator mutator(0x5EED0003);
  int decoded = 0;
  for (int m = 0; m < kMutations; ++m) {
    const Bytes input = mutate(mutator, corpus[mutator.below(corpus.size())],
                               corpus[mutator.below(corpus.size())]);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(input.data()),
                static_cast<std::streamsize>(input.size()));
    }
    decoded += decodes(
        [&]() {
          const auto contents = read_journal(path);
          // What read_journal keeps never extends past the file.
          EXPECT_LE(contents.valid_bytes, input.size()) << "mutation " << m;
        },
        m);
  }
  std::remove(path.c_str());
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutations);
}

}  // namespace
}  // namespace sunmap::sweep
