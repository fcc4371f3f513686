#pragma once

// Seeded byte-level mutator shared by the fuzz suites (sweep_fuzz_test,
// parser_fuzz_test): byte flips, truncations and splices with a second
// corpus entry, from a fixed seed, so a failing mutation reproduces
// exactly.

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace sunmap::fuzz {

using Bytes = std::vector<std::uint8_t>;

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  /// One to three stacked mutations of `input`; splices take their tail
  /// from `donor`.
  Bytes mutate(Bytes input, const Bytes& donor) {
    const std::size_t rounds = 1 + below(3);
    for (std::size_t r = 0; r < rounds; ++r) {
      switch (below(3)) {
        case 0:  // Flip: overwrite one to four bytes.
          for (std::size_t k = 1 + below(4); k > 0 && !input.empty(); --k) {
            input[below(input.size())] = static_cast<std::uint8_t>(rng_());
          }
          break;
        case 1:  // Truncate.
          input.resize(below(input.size() + 1));
          break;
        default: {  // Splice: a prefix of input, then a tail of donor.
          input.resize(below(input.size() + 1));
          const std::size_t from = below(donor.size() + 1);
          input.insert(input.end(),
                       donor.begin() + static_cast<std::ptrdiff_t>(from),
                       donor.end());
        }
      }
    }
    return input;
  }

 private:
  std::mt19937_64 rng_;
};

}  // namespace sunmap::fuzz
