#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/paths.h"
#include "topo/topology.h"

namespace sunmap::fault {

/// One physical switch-to-switch channel named by its endpoint switches.
/// On direct topologies the channel is bidirectional, so failing it removes
/// both directed edges; on the unidirectional stage links of indirect
/// topologies only the existing direction is removed.
struct LinkFault {
  graph::NodeId a = 0;
  graph::NodeId b = 0;
  [[nodiscard]] bool operator==(const LinkFault&) const = default;
};

/// One user-listed fault scenario, described independently of any concrete
/// topology: links by endpoint switch ids and dead switches by id.
struct ScenarioSpec {
  std::vector<LinkFault> links;
  std::vector<graph::NodeId> switches;
  [[nodiscard]] bool operator==(const ScenarioSpec&) const = default;
};

/// Most scenarios a random spec may draw. Each materialized scenario costs
/// every context one 4-byte path id per (ingress, egress) switch pair
/// (1 KB on a 4x4 mesh, 200 KB on a 15x15 one) plus the few routes it
/// adds to the context's path table, so the cap bounds the memory one
/// request can claim; it is over twice the 420-channel N-1 set of a 15x15
/// mesh.
inline constexpr int kMaxRandomScenarios = 1024;

/// Topology-independent description of a whole fault-scenario family. The
/// spec — not a list of concrete edge ids — is what MapperConfig carries,
/// because one configuration is applied across every topology of a library
/// sweep and edge ids differ per topology; EvalContext materializes the spec
/// against its own topology at bind time (see materialize()).
struct FaultSpec {
  enum class Kind {
    kNone,       ///< No fault scenarios: evaluation is exactly fault-free.
    kEveryLink,  ///< Exhaustive N-1: one scenario per physical channel.
    kRandom,     ///< num_scenarios seeded samples of faults_per_scenario
                 ///< distinct channels each.
    kExplicit,   ///< The user-listed scenarios below.
  };
  Kind kind = Kind::kNone;
  int num_scenarios = 4;        ///< kRandom only.
  int faults_per_scenario = 1;  ///< kRandom only.
  std::uint64_t seed = 1;       ///< kRandom only.
  std::vector<ScenarioSpec> scenarios;  ///< kExplicit only.
  [[nodiscard]] bool operator==(const FaultSpec&) const = default;
};

/// How per-scenario degraded costs fold into the one scalar the search
/// minimises.
enum class Aggregation {
  kWorstCase,  ///< max(fault-free cost, every scenario cost).
  kWeighted,   ///< Mean of the fault-free and every scenario cost.
};

const char* to_string(Aggregation aggregation);

/// The complete robustness configuration of one mapping run: which fault
/// scenarios to evaluate and how their degraded costs aggregate into the
/// search objective. empty() (the default) keeps every code path
/// bit-identical to a fault-unaware evaluation.
struct FaultSet {
  FaultSpec spec;
  Aggregation aggregation = Aggregation::kWorstCase;
  /// Cost multiplier applied to the fault-free cost when a scenario
  /// disconnects a commodity (or kills an attachment switch). Must be >= 1
  /// so the aggregate can never drop below the fault-free cost's admissible
  /// lower bound — that is what keeps the pruning bounds valid.
  double infeasible_penalty = 10.0;

  [[nodiscard]] bool empty() const {
    return spec.kind == FaultSpec::Kind::kNone;
  }
  [[nodiscard]] bool operator==(const FaultSet&) const = default;

  /// Topology-independent sanity checks (penalty range, random generator
  /// parameters, explicit fault ids). Throws std::invalid_argument naming the
  /// offending value. Called from MapperConfig::validate().
  void validate() const;
};

/// Compact human-readable tag for sweep labels and CSV ("none", "n1",
/// "rand4x2@7", "list3"; weighted aggregation appends "-w").
std::string describe(const FaultSet& faults);

/// One concrete scenario against one topology: the directed switch-graph
/// edges removed and the switches considered dead. Produced by
/// materialize(); scenarios are deterministic functions of (spec, topology).
struct FaultScenario {
  std::vector<graph::EdgeId> failed_edges;
  std::vector<graph::NodeId> failed_switches;
  std::string name;
};

/// The physical channel list faults quantify over: each bidirectional
/// channel pair of a direct topology once (a < b by construction), each
/// unidirectional stage link of an indirect topology once.
std::vector<LinkFault> physical_links(const topo::Topology& topology);

/// Materializes a spec against one topology. Deterministic; an explicit
/// LinkFault whose endpoints carry no edge on this topology simply removes
/// nothing (so one explicit spec can sweep a whole library), but an
/// out-of-range switch id throws std::invalid_argument.
std::vector<FaultScenario> materialize(const FaultSpec& spec,
                                       const topo::Topology& topology);

/// Aliveness masks of one scenario over one switch graph: a path survives
/// iff every edge has edge_alive and every node has switch_alive.
struct ScenarioMask {
  std::vector<char> edge_alive;
  std::vector<char> switch_alive;
};

void make_mask(const graph::DirectedGraph& g, const FaultScenario& scenario,
               ScenarioMask& out);

/// Parent arrays of one deterministic BFS over the surviving subgraph,
/// reusable across every commodity sharing the source switch. dist == -1
/// marks unreachable nodes (everything, if the source itself is dead).
struct MaskedBfs {
  std::vector<graph::EdgeId> parent_edge;
  std::vector<int> dist;
  /// The reached switches in visiting order, source first: every switch
  /// comes after its parent.
  std::vector<graph::NodeId> queue;
};

/// Breadth-first search from src over the edges and switches the mask keeps
/// alive. Neighbours expand in out_edges insertion order, so the parent
/// choice — and therefore every extracted path — is deterministic and
/// identical wherever the same (graph, mask, src) is searched. This is what
/// gives the incremental fault path (EvalContext's path table, built from
/// these searches at bind) and the reference (BFS re-run per evaluation)
/// the same routes.
void masked_bfs(const graph::DirectedGraph& g, graph::NodeId src,
                const ScenarioMask& mask, MaskedBfs& out);

/// Walks the parent arrays into a concrete path src -> dst (cost = hops).
/// Returns false when dst is unreachable under the mask; src == dst yields
/// the single-node path when src is alive.
bool extract_path(const graph::DirectedGraph& g, const MaskedBfs& bfs,
                  graph::NodeId src, graph::NodeId dst, graph::Path& out);

}  // namespace sunmap::fault
