#include "topo/topology.h"

#include <algorithm>
#include <stdexcept>

namespace sunmap::topo {

void Topology::finalize() {
  if (ingress_.size() != egress_.size()) {
    throw std::logic_error("Topology: ingress/egress size mismatch");
  }
  if (ingress_.empty()) {
    throw std::logic_error("Topology: no core slots");
  }
  for (std::size_t s = 0; s < ingress_.size(); ++s) {
    if (ingress_[s] < 0 || ingress_[s] >= graph_.num_nodes() ||
        egress_[s] < 0 || egress_[s] >= graph_.num_nodes()) {
      throw std::logic_error("Topology: slot attached to invalid switch");
    }
  }

  hops_ = graph::all_pairs_hops(graph_);

  // Every slot pair must be routable.
  for (std::size_t a = 0; a < ingress_.size(); ++a) {
    for (std::size_t b = 0; b < ingress_.size(); ++b) {
      if (a == b) continue;
      if (hops_[static_cast<std::size_t>(ingress_[a])]
               [static_cast<std::size_t>(egress_[b])] < 0) {
        throw std::logic_error("Topology: unroutable slot pair");
      }
    }
  }

  slots_in_at_.assign(static_cast<std::size_t>(graph_.num_nodes()), 0);
  slots_out_at_.assign(static_cast<std::size_t>(graph_.num_nodes()), 0);
  for (std::size_t s = 0; s < ingress_.size(); ++s) {
    ++slots_in_at_[static_cast<std::size_t>(ingress_[s])];
    ++slots_out_at_[static_cast<std::size_t>(egress_[s])];
  }

  quadrant_mask_cache_.assign(ingress_.size() * ingress_.size(), {});
}

int Topology::switch_in_ports(NodeId sw) const {
  return graph_.in_degree(sw) +
         slots_in_at_.at(static_cast<std::size_t>(sw));
}

int Topology::switch_out_ports(NodeId sw) const {
  return graph_.out_degree(sw) +
         slots_out_at_.at(static_cast<std::size_t>(sw));
}

int Topology::switch_radix(NodeId sw) const {
  return std::max(switch_in_ports(sw), switch_out_ports(sw));
}

int Topology::num_network_links() const {
  if (!direct_) return graph_.num_edges();
  // Direct topologies store each bidirectional channel as two directed
  // edges; count each physical channel once.
  int count = 0;
  for (const auto& e : graph_.edges()) {
    if (e.src < e.dst) ++count;
  }
  return count;
}

int Topology::num_core_links() const {
  int count = 0;
  for (std::size_t s = 0; s < ingress_.size(); ++s) {
    // A direct-topology core has one bidirectional attachment; an indirect
    // one attaches separately to its ingress and egress switch.
    count += (ingress_[s] == egress_[s]) ? 1 : 2;
  }
  return count;
}

int Topology::min_switch_hops(SlotId a, SlotId b) const {
  const NodeId from = ingress_switch(a);
  const NodeId to = egress_switch(b);
  return hops_[static_cast<std::size_t>(from)]
              [static_cast<std::size_t>(to)] +
         1;
}

std::vector<NodeId> Topology::quadrant_nodes(SlotId src, SlotId dst) const {
  return graph::min_path_nodes(graph_, ingress_switch(src),
                               egress_switch(dst));
}

const std::vector<char>& Topology::quadrant_mask(SlotId src,
                                                 SlotId dst) const {
  const std::size_t key =
      static_cast<std::size_t>(src) * ingress_.size() +
      static_cast<std::size_t>(dst);
  const std::lock_guard<std::mutex> lock(quadrant_mutex_);
  auto& entry = quadrant_mask_cache_.at(key);
  if (entry.empty()) {
    entry.assign(static_cast<std::size_t>(graph_.num_nodes()), 0);
    for (const NodeId u : quadrant_nodes(src, dst)) {
      entry[static_cast<std::size_t>(u)] = 1;
    }
  }
  return entry;
}

graph::Path Topology::make_path(const std::vector<NodeId>& nodes) const {
  graph::Path path;
  path.nodes = nodes;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const auto e = graph_.find_edge(nodes[i], nodes[i + 1]);
    if (!e) {
      throw std::logic_error("Topology: route uses a non-existent link");
    }
    path.edges.push_back(*e);
  }
  path.cost = static_cast<double>(path.edges.size());
  return path;
}

}  // namespace sunmap::topo
