#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "io/request_codec.h"
#include "sweep/checkpoint.h"
#include "topo/library.h"

namespace sunmap::io {
namespace {

using mapping::Objective;
using mapping::SearchKind;
using route::RoutingKind;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kEveryFinalist = std::numeric_limits<int>::max();

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double value : values) out.push_back(bits(value));
  return out;
}

/// Field-by-field equality of everything the request text carries, doubles
/// compared bit for bit.
void expect_same(const DecodedRequest& want, const DecodedRequest& got,
                 const std::string& text) {
  SCOPED_TRACE(text);
  EXPECT_EQ(want.app, got.app);
  EXPECT_EQ(want.extensions, got.extensions);
  const auto& w = want.request;
  const auto& g = got.request;
  EXPECT_EQ(w.objectives, g.objectives);
  EXPECT_EQ(w.routings, g.routings);
  EXPECT_EQ(bits(w.link_bandwidths_mbps), bits(g.link_bandwidths_mbps));
  EXPECT_EQ(bits(w.max_areas_mm2), bits(g.max_areas_mm2));
  EXPECT_EQ(w.searches, g.searches);
  EXPECT_EQ(w.restart_counts, g.restart_counts);
  EXPECT_EQ(w.swap_passes, g.swap_passes);
  EXPECT_EQ(w.num_threads, g.num_threads);
  EXPECT_EQ(w.floorplan_options, g.floorplan_options);
  ASSERT_EQ(w.fault_sets.size(), g.fault_sets.size());
  for (std::size_t i = 0; i < w.fault_sets.size(); ++i) {
    EXPECT_EQ(w.fault_sets[i], g.fault_sets[i]) << "fault set " << i;
    EXPECT_EQ(bits(w.fault_sets[i].infeasible_penalty),
              bits(g.fault_sets[i].infeasible_penalty));
  }
  EXPECT_EQ(w.sim_finalists, g.sim_finalists);
  EXPECT_EQ(w.sim_rank, g.sim_rank);
  const auto& wb = w.base;
  const auto& gb = g.base;
  EXPECT_EQ(wb.annealing_reheats, gb.annealing_reheats);
  EXPECT_EQ(wb.faults.spec.num_scenarios, gb.faults.spec.num_scenarios);
  EXPECT_EQ(wb.faults.spec.seed, gb.faults.spec.seed);
  EXPECT_EQ(wb.faults.aggregation, gb.faults.aggregation);
  EXPECT_EQ(bits(wb.faults.infeasible_penalty),
            bits(gb.faults.infeasible_penalty));
  EXPECT_EQ(bits(wb.weights.delay), bits(gb.weights.delay));
  EXPECT_EQ(bits(wb.weights.area), bits(gb.weights.area));
  EXPECT_EQ(bits(wb.weights.power), bits(gb.weights.power));
  EXPECT_EQ(wb.sim_seed, gb.sim_seed);
  EXPECT_EQ(wb.sim_traffic, gb.sim_traffic);
  EXPECT_EQ(bits(wb.sim_burst_len), bits(gb.sim_burst_len));
  EXPECT_EQ(bits(wb.sim_burst_duty), bits(gb.sim_burst_duty));
  // Every field no key sets must still hold its default.
  EXPECT_TRUE(wb == gb);
}

/// Random requests over the whole vocabulary: every key, every spelling,
/// and doubles drawn from all finite bit patterns plus infinities.
class RandomRequests {
 public:
  explicit RandomRequests(std::uint64_t seed) : rng_(seed) {}

  DecodedRequest next() {
    static const char* const kApps[] = {"",    "vopd", "mpeg4", "dsp",
                                        "netproc16", "pip",  "mwd"};
    DecodedRequest out;
    auto& r = out.request;
    auto& base = r.base;
    out.app = kApps[below(7)];
    out.extensions = coin();
    r.objectives = some<Objective>(
        {Objective::kMinDelay, Objective::kMinArea, Objective::kMinPower,
         Objective::kWeighted});
    r.routings = some<RoutingKind>(
        {RoutingKind::kDimensionOrdered, RoutingKind::kMinPath,
         RoutingKind::kSplitMin, RoutingKind::kSplitAll});
    r.searches = some<SearchKind>({SearchKind::kGreedySwaps,
                                   SearchKind::kAnnealing,
                                   SearchKind::kRestartAnnealing});
    for (int n = below(4); n > 0; --n) {
      r.link_bandwidths_mbps.push_back(real());
    }
    for (int n = below(4); n > 0; --n) {
      r.max_areas_mm2.push_back(real());
    }
    for (int n = below(4); n > 0; --n) r.restart_counts.push_back(integer());
    for (int n = below(4); n > 0; --n) r.swap_passes.push_back(integer());
    if (coin()) r.num_threads = integer();
    if (coin()) base.annealing_reheats = integer();

    // The fplan axis is an engine x sizing-pass grid over the base options.
    std::vector<fplan::Floorplanner::Engine> engines;
    std::vector<int> sizing;
    for (int n = below(3); n > 0; --n) {
      engines.push_back(coin() ? fplan::Floorplanner::Engine::kLongestPath
                               : fplan::Floorplanner::Engine::kSimplexLp);
    }
    for (int n = engines.empty() ? 0 : 1 + below(3); n > 0; --n) {
      sizing.push_back(integer());
    }
    for (const auto engine : engines) {
      for (const int passes : sizing) {
        auto options = base.floorplan;
        options.engine = engine;
        options.sizing_passes = passes;
        r.floorplan_options.push_back(options);
      }
    }

    if (coin()) base.faults.aggregation = fault::Aggregation::kWeighted;
    if (coin()) base.faults.infeasible_penalty = real();
    switch (below(3)) {
      case 0:
        break;
      case 1: {  // Named specs, each over the base fault fields.
        std::vector<int> kinds(static_cast<std::size_t>(1 + below(3)));
        for (int& kind : kinds) kind = below(3);
        // The sampler keys are refused unless a rand set uses them.
        if (std::count(kinds.begin(), kinds.end(), 2) > 0) {
          if (coin()) base.faults.spec.num_scenarios = integer();
          if (coin()) base.faults.spec.seed = rng_();
        }
        for (const int kind : kinds) {
          auto set = base.faults;
          set.spec.kind = kind == 0   ? fault::FaultSpec::Kind::kNone
                          : kind == 1 ? fault::FaultSpec::Kind::kEveryLink
                                      : fault::FaultSpec::Kind::kRandom;
          if (kind == 2 && coin()) set.spec.faults_per_scenario = integer();
          r.fault_sets.push_back(set);
        }
        break;
      }
      default: {  // One explicit scenario list.
        auto set = base.faults;
        set.spec.kind = fault::FaultSpec::Kind::kExplicit;
        for (int s = 1 + below(3); s > 0; --s) {
          fault::ScenarioSpec scenario;
          for (int n = below(3); n > 0; --n) {
            scenario.links.push_back({integer(), integer()});
          }
          for (int n = scenario.links.empty() ? 1 : below(3); n > 0; --n) {
            scenario.switches.push_back(integer());
          }
          set.spec.scenarios.push_back(scenario);
        }
        r.fault_sets.push_back(set);
      }
    }

    if (coin()) base.weights.delay = real();
    if (coin()) base.weights.area = real();
    if (coin()) base.weights.power = real();
    if (coin()) base.sim_seed = rng_();
    if (coin()) base.sim_traffic = mapping::SimTraffic::kBursty;
    if (coin()) base.sim_burst_len = real();
    if (coin()) base.sim_burst_duty = real();
    const int tier = below(4);
    r.sim_finalists = tier == 0 ? 0 : tier == 1 ? kEveryFinalist : below(1000);
    r.sim_rank = coin();
    if (r.sim_rank && r.sim_finalists == 0) r.sim_finalists = 3;
    return out;
  }

 private:
  int below(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }
  bool coin() { return below(2) == 1; }
  int integer() {
    switch (below(3)) {
      case 0:
        return below(10);
      case 1:
        return std::numeric_limits<int>::min() + below(3);
      default:
        return static_cast<int>(static_cast<std::uint32_t>(rng_()));
    }
  }
  double real() {
    switch (below(6)) {
      case 0:
        return kInf;
      case 1:
        return -kInf;
      case 2:
        return static_cast<double>(below(2000)) / 7.0;
      default:
        for (;;) {
          const double value = std::bit_cast<double>(rng_());
          if (value == value) return value;  // Skip NaN: never equal.
        }
    }
  }
  template <class E>
  std::vector<E> some(const std::vector<E>& choices) {
    std::vector<E> out;
    for (int n = below(5); n > 0; --n) {
      out.push_back(choices[static_cast<std::size_t>(
          below(static_cast<int>(choices.size())))]);
    }
    return out;
  }
  std::mt19937_64 rng_;
};

TEST(RequestCodec, RandomRequestsRoundTripBitExactly) {
  const auto app = apps::vopd();
  const auto library = topo::standard_library(app.num_cores());
  RandomRequests requests(20261018);
  for (int i = 0; i < 1500; ++i) {
    const auto request = requests.next();
    const std::string text = encode_request(request);
    const auto decoded = decode_request(text);
    expect_same(request, decoded, text);
    EXPECT_EQ(encode_request(decoded), text);

    auto bound = request.request;
    auto rebound = decoded.request;
    bound.app = rebound.app = &app;
    bound.library = rebound.library = &library;
    EXPECT_EQ(sweep::request_fingerprint(bound),
              sweep::request_fingerprint(rebound))
        << text;
    if (HasFailure()) break;
  }
}

TEST(RequestCodec, DefaultRequestEncodesToNothing) {
  EXPECT_EQ(encode_request(DecodedRequest{}), "");
  const auto decoded = decode_request("");
  expect_same(DecodedRequest{}, decoded, "");
}

TEST(RequestCodec, DaemonKeysDecodeToTheRequestTheyAlwaysBuilt) {
  // All ten keys the daemon has served since it first took requests.
  const auto all = decode_request(
      "app=vopd\nobjectives=delay,area,power,weighted\n"
      "routings=DO,MP,SM,SA\nbandwidths=400,800.5\nareas=60,inf\n"
      "searches=greedy,sa,rsa\nrestarts=2,4\nswap_passes=1,3\n"
      "extensions=1\nthreads=3\n\n");
  DecodedRequest want;
  want.app = "vopd";
  want.extensions = true;
  auto& r = want.request;
  r.objectives = {Objective::kMinDelay, Objective::kMinArea,
                  Objective::kMinPower, Objective::kWeighted};
  r.routings = {RoutingKind::kDimensionOrdered, RoutingKind::kMinPath,
                RoutingKind::kSplitMin, RoutingKind::kSplitAll};
  r.link_bandwidths_mbps = {400.0, 800.5};
  r.max_areas_mm2 = {60.0, kInf};
  r.searches = {SearchKind::kGreedySwaps, SearchKind::kAnnealing,
                SearchKind::kRestartAnnealing};
  r.restart_counts = {2, 4};
  r.swap_passes = {1, 3};
  r.num_threads = 3;
  expect_same(want, all, "ten keys");

  // The serve benchmark's five-key request, with a CRLF line ending.
  const auto serve = decode_request(
      "app=mpeg4\r\nroutings=MP\nobjectives=delay,power\nbandwidths=700\n"
      "swap_passes=1\n");
  DecodedRequest served;
  served.app = "mpeg4";
  served.request.routings = {RoutingKind::kMinPath};
  served.request.objectives = {Objective::kMinDelay, Objective::kMinPower};
  served.request.link_bandwidths_mbps = {700.0};
  served.request.swap_passes = {1};
  expect_same(served, serve, "serve request");
  EXPECT_FALSE(decode_request("app=pip\nextensions=0\n").extensions);
}

TEST(RequestCodec, AliasesDecodeAndEncodeWritesShortNames) {
  const auto decoded = decode_request(
      "searches=greedy-swaps,annealing,restart,restart-annealing\n"
      "fplan_engine=longest-path,simplex-lp\nfault_mode=worst-case\n");
  EXPECT_EQ(decoded.request.searches,
            (std::vector<SearchKind>{
                SearchKind::kGreedySwaps, SearchKind::kAnnealing,
                SearchKind::kRestartAnnealing,
                SearchKind::kRestartAnnealing}));
  ASSERT_EQ(decoded.request.floorplan_options.size(), 2u);
  EXPECT_EQ(decoded.request.floorplan_options[1].engine,
            fplan::Floorplanner::Engine::kSimplexLp);
  EXPECT_EQ(decoded.request.floorplan_options[1].sizing_passes, 2);
  EXPECT_EQ(encode_request(decoded),
            "searches=greedy,sa,rsa,rsa\nfplan_engine=lp,simplex\n"
            "fplan_sizing_passes=2\n");
}

TEST(RequestCodec, FaultGrammarAndSimTierDefaults) {
  const auto named = decode_request(
      "fault_samples=8\nfault_seed=7\nfault_mode=weighted\n"
      "fault_penalty=4\nfaults=none,n1,rand2\n");
  ASSERT_EQ(named.request.fault_sets.size(), 3u);
  EXPECT_TRUE(named.request.fault_sets[0].empty());
  EXPECT_EQ(named.request.fault_sets[1].spec.kind,
            fault::FaultSpec::Kind::kEveryLink);
  const auto& rand2 = named.request.fault_sets[2];
  EXPECT_EQ(rand2.spec.kind, fault::FaultSpec::Kind::kRandom);
  EXPECT_EQ(rand2.spec.faults_per_scenario, 2);
  EXPECT_EQ(rand2.spec.num_scenarios, 8);
  EXPECT_EQ(rand2.spec.seed, 7u);
  EXPECT_EQ(rand2.aggregation, fault::Aggregation::kWeighted);
  EXPECT_EQ(rand2.infeasible_penalty, 4.0);

  const auto listed = decode_request("faults=0-1/s7,2-3\n");
  ASSERT_EQ(listed.request.fault_sets.size(), 1u);
  const auto& spec = listed.request.fault_sets[0].spec;
  EXPECT_EQ(spec.kind, fault::FaultSpec::Kind::kExplicit);
  ASSERT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.scenarios[0].links,
            (std::vector<fault::LinkFault>{{0, 1}}));
  EXPECT_EQ(spec.scenarios[1].switches, (std::vector<graph::NodeId>{7}));
  EXPECT_EQ(spec.scenarios[1].links,
            (std::vector<fault::LinkFault>{{2, 3}}));
  EXPECT_EQ(encode_request(listed), "faults=0-1/2-3,s7\n");

  // --sim-rank re-ranks 3 finalists unless a count is named; --sim-validate
  // lifts the cap whatever the count.
  EXPECT_EQ(decode_request("sim_rank=1\n").request.sim_finalists, 3);
  EXPECT_EQ(decode_request("sim_rank=1\nsim_finalists=5\n")
                .request.sim_finalists,
            5);
  const auto every = decode_request("sim_finalists=2\nsim_validate=1\n");
  EXPECT_EQ(every.request.sim_finalists, kEveryFinalist);
  EXPECT_EQ(encode_request(every), "sim_validate=1\n");
}

TEST(RequestCodec, EveryBadInputNamesItsKeyAndValue) {
  struct Case {
    const char* text;
    std::vector<const char*> named;
  };
  const Case cases[] = {
      {"app=vopd\nbogus_key=1\n", {"bogus_key"}},
      // The simulator engine is not a request setting.
      {"sim_engine=event\n", {"unknown request key sim_engine"}},
      {"routings=DO\nroutings=MP\n", {"routings"}},
      {"app vopd\n", {"app vopd"}},
      // Every enum key.
      {"extensions=yes\n", {"extensions", "yes"}},
      {"objectives=delay,fast\n", {"objectives", "fast"}},
      {"routings=XY\n", {"routings", "XY"}},
      {"searches=tabu\n", {"searches", "tabu"}},
      {"fplan_engine=cad\n", {"fplan_engine", "cad"}},
      {"fault_mode=mean\n", {"fault_mode", "mean"}},
      {"sim_validate=true\n", {"sim_validate", "true"}},
      {"sim_rank=2\n", {"sim_rank", "2"}},
      {"sim_traffic=poisson\n", {"sim_traffic", "poisson"}},
      // Every numeric key.
      {"bandwidths=500,fast\n", {"bandwidths", "fast"}},
      {"areas=1e999\n", {"areas", "1e999"}},
      {"restarts=2,x\n", {"restarts", "x"}},
      {"swap_passes=1,,2\n", {"swap_passes", "1,,2"}},
      {"threads=abc\n", {"threads", "abc"}},
      {"threads=99999999999\n", {"threads", "99999999999"}},
      {"reheat=1.5\n", {"reheat", "1.5"}},
      {"fplan_sizing_passes=two\n", {"fplan_sizing_passes", "two"}},
      {"fault_samples=4x\n", {"fault_samples", "4x"}},
      {"fault_seed=-1\n", {"fault_seed", "-1"}},
      {"fault_penalty=ten\n", {"fault_penalty", "ten"}},
      {"w_delay=\n", {"w_delay="}},
      {"w_area=1..2\n", {"w_area", "1..2"}},
      {"w_power= 1\n", {"w_power", " 1"}},
      {"sim_finalists=-1\n", {"sim_finalists", "-1"}},
      {"sim_seed=0x10\n", {"sim_seed", "0x10"}},
      {"sim_burst_len=long\n", {"sim_burst_len", "long"}},
      {"sim_burst_duty=30%\n", {"sim_burst_duty", "30%"}},
      // The fault grammar.
      {"faults=n2\n", {"faults", "n2"}},
      {"faults=randx\n", {"faults", "randx"}},
      {"faults=n1,0-1\n", {"faults", "n1,0-1"}},
      {"faults=0-1,,2-3\n", {"faults", "0-1,,2-3"}},
      {"faults=0-1//s2\n", {"faults", "0-1//s2"}},
      {"faults=s\n", {"faults", "s"}},
      {"faults=7\n", {"faults", "7"}},
      {"faults=\n", {"faults="}},
      // The sampler keys without a rand set to sample.
      {"fault_samples=0\nfault_seed=9\n", {"fault_samples=0", "rand"}},
      {"fault_seed=9\n", {"fault_seed=9", "rand"}},
      {"fault_samples=8\nfaults=none,n1\n", {"fault_samples=8"}},
      {"fault_seed=9\nfaults=0-1/s7\n", {"fault_seed=9"}},
  };
  for (const auto& c : cases) {
    try {
      (void)decode_request(c.text);
      ADD_FAILURE() << "accepted " << c.text;
    } catch (const std::invalid_argument& e) {
      for (const char* name : c.named) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << "\"" << e.what() << "\" does not name \"" << name << "\"";
      }
    }
  }
}

TEST(RequestCodec, EncodeRejectsFieldsNoKeyCarries) {
  DecodedRequest schedule;
  schedule.request.base.annealing_iterations = 5000;
  EXPECT_THROW((void)encode_request(schedule), std::invalid_argument);

  // Floorplan options that are no engine x sizing-pass grid.
  DecodedRequest ragged;
  auto options = ragged.request.base.floorplan;
  ragged.request.floorplan_options = {options, options};
  ragged.request.floorplan_options[1].spacing_mm = 0.5;
  EXPECT_THROW((void)encode_request(ragged), std::invalid_argument);
}

}  // namespace
}  // namespace sunmap::io
