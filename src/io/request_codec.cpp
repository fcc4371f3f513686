#include "io/request_codec.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace sunmap::io {

namespace {

using FplanOptions = fplan::Floorplanner::Options;
using FplanEngine = fplan::Floorplanner::Engine;
using FaultKind = fault::FaultSpec::Kind;

/// Finalists --sim-rank re-ranks when the request names no count.
constexpr int kSimRankFinalists = 3;
/// sim_validate: the finalist tier with no cap.
constexpr int kEveryFinalist = std::numeric_limits<int>::max();

template <class E>
struct Spelling {
  const char* text;
  E value;
};

// A value's short spelling comes first; encode writes that one.
constexpr Spelling<bool> kBools[] = {{"0", false}, {"1", true}};
constexpr Spelling<mapping::Objective> kObjectives[] = {
    {"delay", mapping::Objective::kMinDelay},
    {"area", mapping::Objective::kMinArea},
    {"power", mapping::Objective::kMinPower},
    {"weighted", mapping::Objective::kWeighted}};
constexpr Spelling<route::RoutingKind> kRoutings[] = {
    {"DO", route::RoutingKind::kDimensionOrdered},
    {"MP", route::RoutingKind::kMinPath},
    {"SM", route::RoutingKind::kSplitMin},
    {"SA", route::RoutingKind::kSplitAll}};
constexpr Spelling<mapping::SearchKind> kSearches[] = {
    {"greedy", mapping::SearchKind::kGreedySwaps},
    {"sa", mapping::SearchKind::kAnnealing},
    {"rsa", mapping::SearchKind::kRestartAnnealing},
    {"greedy-swaps", mapping::SearchKind::kGreedySwaps},
    {"annealing", mapping::SearchKind::kAnnealing},
    {"restart", mapping::SearchKind::kRestartAnnealing},
    {"restart-annealing", mapping::SearchKind::kRestartAnnealing}};
constexpr Spelling<FplanEngine> kFplanEngines[] = {
    {"lp", FplanEngine::kLongestPath},
    {"simplex", FplanEngine::kSimplexLp},
    {"longest-path", FplanEngine::kLongestPath},
    {"simplex-lp", FplanEngine::kSimplexLp}};
constexpr Spelling<fault::Aggregation> kFaultModes[] = {
    {"worst", fault::Aggregation::kWorstCase},
    {"weighted", fault::Aggregation::kWeighted},
    {"worst-case", fault::Aggregation::kWorstCase}};
constexpr Spelling<mapping::SimTraffic> kSimTraffics[] = {
    {"trace", mapping::SimTraffic::kTrace},
    {"bursty", mapping::SimTraffic::kBursty}};

[[noreturn]] void fail(const std::string& key, const std::string& value,
                       const std::string& why) {
  throw std::invalid_argument(key + "=" + value + ": " + why);
}

/// The pieces of `text` between separators, empty ones included.
std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> items(1);
  for (const char c : text) {
    if (c == separator) {
      items.emplace_back();
    } else {
      items.back() += c;
    }
  }
  return items;
}

std::string join(const std::vector<std::string>& items, char separator) {
  std::string text;
  for (const auto& item : items) {
    if (&item != &items.front()) text += separator;
    text += item;
  }
  return text;
}

/// from_chars over the whole of `text`: trailing characters are an error.
template <class T>
std::errc parse_whole(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr != end ? std::errc::invalid_argument : ec;
}

// How one value is spelled: Number, Words (an enum's spellings) or Text.

/// Integers and doubles; a double's shortest form reads back bit-exactly.
template <class T>
struct Number {
  T parse(const std::string& key, const std::string& text) const {
    T value{};
    const std::errc ec = parse_whole(text, value);
    if (ec == std::errc::result_out_of_range) fail(key, text, "out of range");
    if (ec != std::errc()) {
      fail(key, text,
           std::is_floating_point_v<T> ? "not a number" : "not an integer");
    }
    return value;
  }
  std::string format(T value) const {
    char buffer[32];
    const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
    return std::string(buffer, end);
  }
};

template <class E>
struct Words {
  std::span<const Spelling<E>> table;

  E parse(const std::string& key, const std::string& text) const {
    std::vector<std::string> want;
    for (const auto& word : table) {
      if (text == word.text) return word.value;
      want.emplace_back(word.text);
    }
    fail(key, text, "want one of " + join(want, '|'));
  }
  /// "" for a value outside the table, which the read-back check rejects.
  std::string format(E value) const {
    for (const auto& word : table) {
      if (word.value == value) return word.text;
    }
    return "";
  }
};

template <class E, std::size_t N>
Words<E> words(const Spelling<E> (&table)[N]) {
  return Words<E>{table};
}

struct Text {
  std::string parse(const std::string&, const std::string& text) const {
    return text;
  }
  std::string format(const std::string& value) const { return value; }
};

/// The fplan axis: each engine crossed with each sizing-pass count over the
/// base floorplan options, the engine varying slowest.
std::vector<FplanOptions> floorplan_grid(
    const std::vector<FplanEngine>& engines, const std::vector<int>& sizing,
    const FplanOptions& base) {
  std::vector<FplanOptions> grid;
  for (const auto engine : engines) {
    for (const int passes : sizing) {
      grid.push_back(base);
      grid.back().engine = engine;
      grid.back().sizing_passes = passes;
    }
  }
  return grid;
}

// The fault grammar: comma-separated named specs (none | n1 | rand[M]), or
// one explicit scenario list ('/' separates scenarios, ',' faults; "a-b"
// fails the channel between switches a and b, "sN" kills switch N). Each
// spec replaces the kind of the base fault set and keeps its sampler
// parameters, mode and penalty.

bool parse_named_fault_spec(const std::string& item, fault::FaultSpec& spec) {
  if (item == "none") {
    spec.kind = FaultKind::kNone;
  } else if (item == "n1") {
    spec.kind = FaultKind::kEveryLink;
  } else if (item.rfind("rand", 0) == 0 &&
             (item.size() == 4 ||
              parse_whole(item.substr(4), spec.faults_per_scenario) ==
                  std::errc())) {
    spec.kind = FaultKind::kRandom;
  } else {
    return false;
  }
  return true;
}

std::vector<fault::FaultSet> parse_fault_sets(const std::string& key,
                                              const std::string& text,
                                              const fault::FaultSet& base) {
  std::vector<fault::FaultSet> sets;
  for (const auto& item : split(text, ',')) {
    sets.push_back(base);
    if (!parse_named_fault_spec(item, sets.back().spec)) {
      sets.clear();
      break;
    }
  }
  if (!sets.empty()) return sets;
  auto set = base;
  set.spec.kind = FaultKind::kExplicit;
  for (const auto& scenario_text : split(text, '/')) {
    auto& scenario = set.spec.scenarios.emplace_back();
    for (const auto& item : split(scenario_text, ',')) {
      graph::NodeId dead = 0;
      fault::LinkFault link;
      const auto dash = item.find('-', 1);
      if (item.size() > 1 && item.front() == 's' &&
          parse_whole(item.substr(1), dead) == std::errc()) {
        scenario.switches.push_back(dead);
      } else if (dash != std::string::npos &&
                 parse_whole(item.substr(0, dash), link.a) == std::errc() &&
                 parse_whole(item.substr(dash + 1), link.b) == std::errc()) {
        scenario.links.push_back(link);
      } else {
        fail(key, text,
             "want none|n1|rand[M] names, or one scenario list "
             "a-b,c-d,sN/...");
      }
    }
  }
  return {set};
}

std::string format_fault_spec(const fault::FaultSpec& spec) {
  const Number<int> number;
  switch (spec.kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kEveryLink:
      return "n1";
    case FaultKind::kRandom:
      return std::string("rand") + number.format(spec.faults_per_scenario);
    case FaultKind::kExplicit:
      break;
  }
  std::vector<std::string> scenarios;
  for (const auto& scenario : spec.scenarios) {
    std::vector<std::string> faults;
    for (const auto& link : scenario.links) {
      faults.push_back(number.format(link.a) + '-' + number.format(link.b));
    }
    for (const auto dead : scenario.switches) {
      faults.push_back(std::string("s") + number.format(dead));
    }
    scenarios.push_back(join(faults, ','));
  }
  return join(scenarios, '/');
}

/// Walks each_key one way. Encoding records each key with its field's text
/// in `lines` ("" for an empty list). Decoding takes each key's text out of
/// `fields` and parses it into the field; a field left over names an
/// unknown key.
struct Archive {
  bool decoding = false;
  std::map<std::string, std::string> fields;
  std::vector<std::pair<std::string, std::string>> lines;

  /// Encoding: records `text` as the key's text. Decoding: the key's text,
  /// when the request sets the key.
  std::optional<std::string> exchange(const char* key, std::string text) {
    if (!decoding) {
      lines.emplace_back(key, std::move(text));
      return std::nullopt;
    }
    const auto it = fields.find(key);
    if (it == fields.end()) return std::nullopt;
    text = std::move(it->second);
    fields.erase(it);
    return text;
  }

  /// Returns whether the decoded request set the key.
  template <class T, class Codec = Number<T>>
  bool scalar(const char* key, T& field, Codec codec = {}) {
    const auto text = exchange(key, codec.format(field));
    if (text) field = codec.parse(key, *text);
    return text.has_value();
  }

  template <class T, class Codec = Number<T>>
  void list(const char* key, std::vector<T>& field, Codec codec = {}) {
    std::vector<std::string> items;
    for (const auto& value : field) items.push_back(codec.format(value));
    const auto text = exchange(key, join(items, ','));
    if (!text) return;
    field.clear();
    for (const auto& item : split(*text, ',')) {
      if (item.empty()) fail(key, *text, "empty list item");
      field.push_back(codec.parse(key, item));
    }
  }

  void floorplan(const char* engine_key, const char* sizing_key,
                 std::vector<FplanOptions>& options, const FplanOptions& base) {
    // Encoding writes the shortest sizing list whose grid reproduces the
    // options; options that form no grid fail encode_request's read-back.
    std::vector<FplanEngine> engines;
    std::vector<int> sizing;
    for (std::size_t width = 1; !decoding && width <= options.size();
         ++width) {
      engines.clear();
      sizing.clear();
      for (std::size_t i = 0; i < options.size(); i += width) {
        engines.push_back(options[i].engine);
      }
      for (std::size_t i = 0; i < width; ++i) {
        sizing.push_back(options[i].sizing_passes);
      }
      if (floorplan_grid(engines, sizing, base) == options) break;
    }
    list(engine_key, engines, words(kFplanEngines));
    list(sizing_key, sizing);
    if (!decoding || (engines.empty() && sizing.empty())) return;
    if (engines.empty()) engines.push_back(base.engine);
    if (sizing.empty()) sizing.push_back(base.sizing_passes);
    options = floorplan_grid(engines, sizing, base);
  }

  void faults(const char* key, std::vector<fault::FaultSet>& sets,
              const fault::FaultSet& base) {
    std::vector<std::string> specs;
    for (const auto& set : sets) specs.push_back(format_fault_spec(set.spec));
    const auto text = exchange(key, join(specs, ','));
    if (text) sets = parse_fault_sets(key, *text, base);
  }

  void sim_tier(const char* finalists_key, const char* validate_key,
                const char* rank_key, int& finalists, bool& rank) {
    bool every = finalists == kEveryFinalist;
    int count = every ? 0 : finalists;
    scalar(finalists_key, count);
    scalar(validate_key, every, words(kBools));
    scalar(rank_key, rank, words(kBools));
    if (!decoding) return;
    if (count < 0) {
      fail(finalists_key, Number<int>{}.format(count), "must be >= 0");
    }
    finalists = every                ? kEveryFinalist
                : rank && count == 0 ? kSimRankFinalists
                                     : count;
  }
};

/// The vocabulary: every key in canonical order with the field it sets.
/// Decoding and encoding both walk it, so they share one key list.
void each_key(Archive& v, DecodedRequest& decoded) {
  auto& r = decoded.request;
  auto& base = r.base;
  v.scalar("app", decoded.app, Text{});
  v.scalar("extensions", decoded.extensions, words(kBools));
  v.list("objectives", r.objectives, words(kObjectives));
  v.list("routings", r.routings, words(kRoutings));
  v.list("bandwidths", r.link_bandwidths_mbps);
  v.list("areas", r.max_areas_mm2);
  v.list("searches", r.searches, words(kSearches));
  v.list("restarts", r.restart_counts);
  v.list("swap_passes", r.swap_passes);
  v.scalar("threads", r.num_threads);
  v.scalar("reheat", base.annealing_reheats);
  v.floorplan("fplan_engine", "fplan_sizing_passes", r.floorplan_options,
              base.floorplan);
  // Each fault set copies these base fields, so they are read first.
  const bool samples =
      v.scalar("fault_samples", base.faults.spec.num_scenarios);
  const bool seed = v.scalar("fault_seed", base.faults.spec.seed);
  v.scalar("fault_mode", base.faults.aggregation, words(kFaultModes));
  v.scalar("fault_penalty", base.faults.infeasible_penalty);
  v.faults("faults", r.fault_sets, base.faults);
  // The sampler keys only shape rand sets; without one they would be
  // ignored, and a mistyped fault request would run fault-free.
  if ((samples || seed) &&
      std::none_of(r.fault_sets.begin(), r.fault_sets.end(),
                   [](const fault::FaultSet& set) {
                     return set.spec.kind == FaultKind::kRandom;
                   })) {
    const auto& spec = base.faults.spec;
    if (samples) {
      fail("fault_samples", Number<int>{}.format(spec.num_scenarios),
           "applies only to rand fault sets (faults=rand[M])");
    }
    fail("fault_seed", Number<std::uint64_t>{}.format(spec.seed),
         "applies only to rand fault sets (faults=rand[M])");
  }
  v.scalar("w_delay", base.weights.delay);
  v.scalar("w_area", base.weights.area);
  v.scalar("w_power", base.weights.power);
  v.sim_tier("sim_finalists", "sim_validate", "sim_rank", r.sim_finalists,
             r.sim_rank);
  v.scalar("sim_seed", base.sim_seed);
  v.scalar("sim_traffic", base.sim_traffic, words(kSimTraffics));
  v.scalar("sim_burst_len", base.sim_burst_len);
  v.scalar("sim_burst_duty", base.sim_burst_duty);
}

/// Equal on every field the request text describes; the bindings (app,
/// library, context_pool) are not compared.
bool same_request(const DecodedRequest& a, const DecodedRequest& b) {
  const auto& x = a.request;
  const auto& y = b.request;
  return a.app == b.app && a.extensions == b.extensions && x.base == y.base &&
         x.objectives == y.objectives && x.routings == y.routings &&
         x.link_bandwidths_mbps == y.link_bandwidths_mbps &&
         x.max_areas_mm2 == y.max_areas_mm2 && x.searches == y.searches &&
         x.restart_counts == y.restart_counts &&
         x.floorplan_options == y.floorplan_options &&
         x.swap_passes == y.swap_passes && x.fault_sets == y.fault_sets &&
         x.num_threads == y.num_threads &&
         x.sim_finalists == y.sim_finalists && x.sim_rank == y.sim_rank;
}

}  // namespace

DecodedRequest decode_request(const std::string& text) {
  std::map<std::string, std::string> fields;
  for (auto& line : split(text, '\n')) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("bad request line (want key=value): " +
                                  line);
    }
    std::string key = line.substr(0, eq);
    if (!fields.emplace(key, line.substr(eq + 1)).second) {
      throw std::invalid_argument("repeated request key " + key);
    }
  }
  Archive decoder{true, std::move(fields), {}};
  DecodedRequest decoded;
  each_key(decoder, decoded);
  if (!decoder.fields.empty()) {
    throw std::invalid_argument("unknown request key " +
                                decoder.fields.begin()->first);
  }
  return decoded;
}

std::string encode_request(const DecodedRequest& request) {
  Archive encoder;
  Archive defaults;
  DecodedRequest copy = request;
  DecodedRequest default_request;
  each_key(encoder, copy);
  each_key(defaults, default_request);
  std::string text;
  for (std::size_t k = 0; k < encoder.lines.size(); ++k) {
    const auto& [key, value] = encoder.lines[k];
    if (value != defaults.lines[k].second) text += key + "=" + value + "\n";
  }
  if (!same_request(decode_request(text), request)) {
    throw std::invalid_argument(
        "encode_request: the request sets a field no key carries");
  }
  return text;
}

int parse_int(const std::string& name, const std::string& text) {
  return Number<int>{}.parse(name, text);
}

}  // namespace sunmap::io
