// Seeded mutation fuzzing of the text parsers at the request boundary: the
// request codec (io::decode_request, then validate() of the decoded base
// configuration, as the daemon and the CLI run it before exploring) and
// the core-graph reader (io::read_core_graph). Every mutated input must
// parse or throw std::invalid_argument or std::runtime_error; the
// ASan+UBSan build also holds each run to no out-of-bounds access,
// overflow or leak. 10,000 mutations per target from a fixed seed, so a
// failure reproduces exactly.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "io/core_graph_io.h"
#include "io/request_codec.h"
#include "tests/fuzz_mutator.h"

namespace sunmap::io {
namespace {

using fuzz::Bytes;
using fuzz::Mutator;

constexpr int kMutations = 10000;

Bytes to_bytes(const std::string& text) { return {text.begin(), text.end()}; }

/// Runs `parse` on one input; true when it parsed, false when it threw
/// std::invalid_argument or std::runtime_error. Any other exception fails
/// the test.
template <typename Parse>
bool parses(Parse&& parse, int mutation) {
  try {
    parse();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutation " << mutation << " threw " << e.what();
    return false;
  }
}

/// Mutates a random corpus entry (spliced with another) `kMutations` times
/// through `parse`, returning how many inputs parsed.
template <typename Parse>
int fuzz_corpus(const std::vector<std::string>& texts, std::uint64_t seed,
                Parse&& parse) {
  std::vector<Bytes> corpus;
  for (const auto& text : texts) corpus.push_back(to_bytes(text));
  Mutator mutator(seed);
  int parsed = 0;
  for (int m = 0; m < kMutations; ++m) {
    const Bytes input = mutator.mutate(corpus[mutator.below(corpus.size())],
                                       corpus[mutator.below(corpus.size())]);
    const std::string text(input.begin(), input.end());
    parsed += parses([&]() { parse(text); }, m);
  }
  return parsed;
}

TEST(ParserFuzz, RequestTextThroughDecodeAndValidate) {
  // Valid requests that together set every key.
  const std::vector<std::string> corpus = {
      "app=vopd\nobjectives=delay,weighted\nroutings=DO,MP\n"
      "faults=none,n1\nfplan_sizing_passes=0,2\nreheat=1\nw_delay=2\n",
      "app=vopd\nobjectives=delay,power\nroutings=DO,MP,SM\nfaults=n1\n"
      "sim_finalists=3\nsim_rank=1\nsim_traffic=bursty\nthreads=4\n",
      "app=mwd\nextensions=1\nbandwidths=400,800\nareas=60.5\n"
      "searches=greedy,sa,rsa\nrestarts=2,4\nswap_passes=1,2\n"
      "fplan_engine=lp,simplex\n",
      "app=netproc16\nfaults=rand2\nfault_samples=8\nfault_seed=7\n"
      "fault_mode=weighted\nfault_penalty=12.5\nw_area=0.5\nw_power=3\n",
      "app=pip\nfaults=0-1,2-3/s4\nsim_validate=1\nsim_seed=9\n"
      "sim_burst_len=20\nsim_burst_duty=0.25\n\n",
  };
  for (const auto& text : corpus) {
    EXPECT_NO_THROW(decode_request(text).request.base.validate()) << text;
  }
  const int parsed =
      fuzz_corpus(corpus, 0x5EED0101, [](const std::string& text) {
        decode_request(text).request.base.validate();
      });
  // Both outcomes occur, so the mutations neither all miss nor all break
  // the grammar.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutations);
}

TEST(ParserFuzz, CoreGraphFilesThroughReadCoreGraph) {
  std::vector<std::string> corpus = {
      "# every statement form\n"
      "app mixed\n"
      "core a 2.5\n"
      "core b hard 1.2 0.8\n"
      "core c soft 3 0.5 2\n"
      "flow a b 100\n"
      "flow b c 2.5e2  # trailing comment\n"
      "flow c a 1e-3\n",
  };
  for (const auto& app : {apps::vopd(), apps::mpeg4(), apps::netproc16()}) {
    corpus.push_back(core_graph_to_string(app));
  }
  for (const auto& text : corpus) {
    std::istringstream in(text);
    EXPECT_NO_THROW((void)read_core_graph(in)) << text;
  }
  const int parsed =
      fuzz_corpus(corpus, 0x5EED0102, [](const std::string& text) {
        std::istringstream in(text);
        (void)read_core_graph(in);
      });
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutations);
}

}  // namespace
}  // namespace sunmap::io
