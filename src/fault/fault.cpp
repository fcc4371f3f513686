#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/prng.h"

namespace sunmap::fault {

const char* to_string(Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kWorstCase:
      return "worst-case";
    case Aggregation::kWeighted:
      return "weighted";
  }
  return "?";
}

void FaultSet::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("FaultSet: " + what);
  };
  // +inf passes a plain range check but turns every faulty cost into inf,
  // which still ranks as a feasible winner; so the penalty must be finite.
  if (!(infeasible_penalty >= 1.0) || !std::isfinite(infeasible_penalty)) {
    fail("infeasible_penalty must be finite and >= 1, got " +
         std::to_string(infeasible_penalty));
  }
  if (spec.kind == FaultSpec::Kind::kRandom) {
    if (spec.num_scenarios < 1 || spec.num_scenarios > kMaxRandomScenarios) {
      fail("random num_scenarios must be in [1, " +
           std::to_string(kMaxRandomScenarios) + "], got " +
           std::to_string(spec.num_scenarios));
    }
    if (spec.faults_per_scenario < 1) {
      fail("random faults_per_scenario must be >= 1, got " +
           std::to_string(spec.faults_per_scenario));
    }
  }
  if (spec.kind == FaultSpec::Kind::kExplicit) {
    for (const auto& scenario : spec.scenarios) {
      for (const auto& link : scenario.links) {
        if (link.a < 0 || link.b < 0) {
          fail("link fault endpoints must be >= 0, got " +
               std::to_string(link.a) + "-" + std::to_string(link.b));
        }
      }
      for (const graph::NodeId sw : scenario.switches) {
        if (sw < 0) {
          fail("switch fault id must be >= 0, got " + std::to_string(sw));
        }
      }
    }
  }
}

std::string describe(const FaultSet& faults) {
  std::string tag;
  switch (faults.spec.kind) {
    case FaultSpec::Kind::kNone:
      return "none";
    case FaultSpec::Kind::kEveryLink:
      tag = "n1";
      break;
    case FaultSpec::Kind::kRandom:
      tag = "rand" + std::to_string(faults.spec.num_scenarios) + "x" +
            std::to_string(faults.spec.faults_per_scenario) + "@" +
            std::to_string(faults.spec.seed);
      break;
    case FaultSpec::Kind::kExplicit:
      tag = "list" + std::to_string(faults.spec.scenarios.size());
      break;
  }
  if (faults.aggregation == Aggregation::kWeighted) tag += "-w";
  return tag;
}

std::vector<LinkFault> physical_links(const topo::Topology& topology) {
  const auto& g = topology.switch_graph();
  std::vector<LinkFault> links;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    if (g.has_edge(edge.dst, edge.src)) {
      // Bidirectional channel: count the pair once, from its lower endpoint.
      if (edge.src < edge.dst) links.push_back({edge.src, edge.dst});
    } else {
      links.push_back({edge.src, edge.dst});
    }
  }
  return links;
}

namespace {

/// Appends every directed edge between the fault's endpoints (both
/// directions when both exist) to the scenario.
void add_link_edges(const topo::Topology& topology, const LinkFault& link,
                    FaultScenario& scenario) {
  const auto& g = topology.switch_graph();
  if (link.a >= g.num_nodes() || link.b >= g.num_nodes()) {
    throw std::invalid_argument(
        "FaultSpec: link fault " + std::to_string(link.a) + "-" +
        std::to_string(link.b) + " is out of range for topology '" +
        topology.name() + "' with " + std::to_string(g.num_nodes()) +
        " switches");
  }
  if (const auto fwd = g.find_edge(link.a, link.b)) {
    scenario.failed_edges.push_back(*fwd);
  }
  if (const auto rev = g.find_edge(link.b, link.a)) {
    scenario.failed_edges.push_back(*rev);
  }
}

}  // namespace

std::vector<FaultScenario> materialize(const FaultSpec& spec,
                                       const topo::Topology& topology) {
  std::vector<FaultScenario> scenarios;
  switch (spec.kind) {
    case FaultSpec::Kind::kNone:
      break;
    case FaultSpec::Kind::kEveryLink: {
      const auto links = physical_links(topology);
      scenarios.reserve(links.size());
      for (const auto& link : links) {
        FaultScenario scenario;
        scenario.name = "L";
        scenario.name += std::to_string(link.a);
        scenario.name += '-';
        scenario.name += std::to_string(link.b);
        add_link_edges(topology, link, scenario);
        scenarios.push_back(std::move(scenario));
      }
      break;
    }
    case FaultSpec::Kind::kRandom: {
      const auto links = physical_links(topology);
      util::Prng prng(spec.seed);
      std::vector<std::size_t> order(links.size());
      scenarios.reserve(static_cast<std::size_t>(spec.num_scenarios));
      for (int i = 0; i < spec.num_scenarios; ++i) {
        // Partial Fisher-Yates: the first `picks` entries of `order` become
        // a uniform sample of distinct physical links.
        for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
        const std::size_t picks =
            std::min(order.size(),
                     static_cast<std::size_t>(spec.faults_per_scenario));
        FaultScenario scenario;
        scenario.name = "rnd" + std::to_string(i);
        for (std::size_t t = 0; t < picks; ++t) {
          const std::size_t j =
              t + static_cast<std::size_t>(
                      prng.next_below(order.size() - t));
          std::swap(order[t], order[j]);
          add_link_edges(topology, links[order[t]], scenario);
        }
        scenarios.push_back(std::move(scenario));
      }
      break;
    }
    case FaultSpec::Kind::kExplicit: {
      scenarios.reserve(spec.scenarios.size());
      for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
        const auto& user = spec.scenarios[i];
        FaultScenario scenario;
        scenario.name = "user" + std::to_string(i);
        for (const auto& link : user.links) {
          add_link_edges(topology, link, scenario);
        }
        for (const graph::NodeId sw : user.switches) {
          if (sw < 0 || sw >= topology.num_switches()) {
            throw std::invalid_argument(
                "FaultSpec: switch fault " + std::to_string(sw) +
                " is out of range for topology '" + topology.name() +
                "' with " + std::to_string(topology.num_switches()) +
                " switches");
          }
          scenario.failed_switches.push_back(sw);
        }
        scenarios.push_back(std::move(scenario));
      }
      break;
    }
  }
  return scenarios;
}

void make_mask(const graph::DirectedGraph& g, const FaultScenario& scenario,
               ScenarioMask& out) {
  out.edge_alive.assign(static_cast<std::size_t>(g.num_edges()), 1);
  out.switch_alive.assign(static_cast<std::size_t>(g.num_nodes()), 1);
  for (const graph::EdgeId e : scenario.failed_edges) {
    out.edge_alive.at(static_cast<std::size_t>(e)) = 0;
  }
  for (const graph::NodeId sw : scenario.failed_switches) {
    out.switch_alive.at(static_cast<std::size_t>(sw)) = 0;
  }
  // A dead switch takes every incident channel with it, so the edge mask
  // alone answers "does this path use failed hardware" edge-by-edge.
  if (!scenario.failed_switches.empty()) {
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      if (out.switch_alive[static_cast<std::size_t>(edge.src)] == 0 ||
          out.switch_alive[static_cast<std::size_t>(edge.dst)] == 0) {
        out.edge_alive[static_cast<std::size_t>(e)] = 0;
      }
    }
  }
}

void masked_bfs(const graph::DirectedGraph& g, graph::NodeId src,
                const ScenarioMask& mask, MaskedBfs& out) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (src < 0 || src >= g.num_nodes()) {
    throw std::out_of_range("masked_bfs: source out of range");
  }
  out.parent_edge.assign(n, graph::kInvalidEdge);
  out.dist.assign(n, -1);
  out.queue.clear();
  if (mask.switch_alive[static_cast<std::size_t>(src)] == 0) return;
  out.dist[static_cast<std::size_t>(src)] = 0;
  out.queue.push_back(src);
  for (std::size_t head = 0; head < out.queue.size(); ++head) {
    const graph::NodeId u = out.queue[head];
    for (const graph::EdgeId e : g.out_edges(u)) {
      if (mask.edge_alive[static_cast<std::size_t>(e)] == 0) continue;
      const graph::NodeId v = g.edge(e).dst;
      if (mask.switch_alive[static_cast<std::size_t>(v)] == 0 ||
          out.dist[static_cast<std::size_t>(v)] >= 0) {
        continue;
      }
      out.dist[static_cast<std::size_t>(v)] =
          out.dist[static_cast<std::size_t>(u)] + 1;
      out.parent_edge[static_cast<std::size_t>(v)] = e;
      out.queue.push_back(v);
    }
  }
}

bool extract_path(const graph::DirectedGraph& g, const MaskedBfs& bfs,
                  graph::NodeId src, graph::NodeId dst, graph::Path& out) {
  if (dst < 0 || dst >= g.num_nodes()) {
    throw std::out_of_range("extract_path: destination out of range");
  }
  out.nodes.clear();
  out.edges.clear();
  out.cost = 0.0;
  if (bfs.dist[static_cast<std::size_t>(dst)] < 0) return false;
  graph::NodeId cur = dst;
  while (cur != src) {
    const graph::EdgeId e = bfs.parent_edge[static_cast<std::size_t>(cur)];
    out.edges.push_back(e);
    out.nodes.push_back(cur);
    cur = g.edge(e).src;
  }
  out.nodes.push_back(src);
  std::reverse(out.nodes.begin(), out.nodes.end());
  std::reverse(out.edges.begin(), out.edges.end());
  out.cost = static_cast<double>(out.edges.size());
  return true;
}

}  // namespace sunmap::fault
