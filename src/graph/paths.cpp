#include "graph/paths.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

namespace sunmap::graph {

namespace {

bool admitted(const NodeFilterFn& filter, NodeId u) {
  return !filter || filter(u);
}

std::vector<int> bfs_impl(const DirectedGraph& g, NodeId start, bool reverse,
                          const NodeFilterFn& filter) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  if (!admitted(filter, start)) return dist;
  std::deque<NodeId> frontier;
  dist[static_cast<std::size_t>(start)] = 0;
  frontier.push_back(start);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    const auto edges = reverse ? g.in_edges(u) : g.out_edges(u);
    for (EdgeId e : edges) {
      const NodeId v = reverse ? g.edge(e).src : g.edge(e).dst;
      if (!admitted(filter, v)) continue;
      if (dist[static_cast<std::size_t>(v)] != -1) continue;
      dist[static_cast<std::size_t>(v)] =
          dist[static_cast<std::size_t>(u)] + 1;
      frontier.push_back(v);
    }
  }
  return dist;
}

}  // namespace

namespace detail {

DijkstraWorkspace& dijkstra_workspace() {
  static thread_local DijkstraWorkspace ws;
  return ws;
}

}  // namespace detail

std::optional<Path> shortest_path(const DirectedGraph& g, NodeId src,
                                  NodeId dst, const EdgeCostFn& cost,
                                  const NodeFilterFn& filter) {
  if (!filter) {
    return shortest_path_with(g, src, dst, cost, AdmitAll{});
  }
  return shortest_path_with(g, src, dst, cost,
                            [&](NodeId u) { return filter(u); });
}

std::vector<int> bfs_distances(const DirectedGraph& g, NodeId src,
                               const NodeFilterFn& filter) {
  return bfs_impl(g, src, /*reverse=*/false, filter);
}

std::vector<int> bfs_distances_to(const DirectedGraph& g, NodeId dst,
                                  const NodeFilterFn& filter) {
  return bfs_impl(g, dst, /*reverse=*/true, filter);
}

std::vector<std::vector<int>> all_pairs_hops(const DirectedGraph& g) {
  std::vector<std::vector<int>> dist;
  dist.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    dist.push_back(bfs_distances(g, u));
  }
  return dist;
}

bool strongly_connected(const DirectedGraph& g) {
  if (g.num_nodes() == 0) return true;
  const auto fwd = bfs_distances(g, 0);
  const auto bwd = bfs_distances_to(g, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (fwd[static_cast<std::size_t>(u)] == -1 ||
        bwd[static_cast<std::size_t>(u)] == -1) {
      return false;
    }
  }
  return true;
}

std::vector<EdgeId> min_path_dag(const DirectedGraph& g, NodeId src,
                                 NodeId dst, const NodeFilterFn& filter) {
  std::vector<EdgeId> dag;
  const auto from_src = bfs_impl(g, src, /*reverse=*/false, filter);
  const auto to_dst = bfs_impl(g, dst, /*reverse=*/true, filter);
  const int total = from_src[static_cast<std::size_t>(dst)];
  if (total == -1) return dag;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (!admitted(filter, edge.src) || !admitted(filter, edge.dst)) continue;
    const int du = from_src[static_cast<std::size_t>(edge.src)];
    const int dv = to_dst[static_cast<std::size_t>(edge.dst)];
    if (du != -1 && dv != -1 && du + 1 + dv == total) dag.push_back(e);
  }
  return dag;
}

std::vector<NodeId> min_path_nodes(const DirectedGraph& g, NodeId src,
                                   NodeId dst) {
  std::vector<NodeId> nodes;
  const auto from_src = bfs_distances(g, src);
  const auto to_dst = bfs_distances_to(g, dst);
  const int total = from_src[static_cast<std::size_t>(dst)];
  if (total == -1) return nodes;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const int du = from_src[static_cast<std::size_t>(u)];
    const int dv = to_dst[static_cast<std::size_t>(u)];
    if (du != -1 && dv != -1 && du + dv == total) nodes.push_back(u);
  }
  return nodes;
}

std::int64_t count_min_paths(const DirectedGraph& g, NodeId src, NodeId dst,
                             std::int64_t cap) {
  if (src == dst) return 1;
  const auto from_src = bfs_distances(g, src);
  const auto to_dst = bfs_distances_to(g, dst);
  const int total = from_src[static_cast<std::size_t>(dst)];
  if (total == -1) return 0;

  // Count paths by dynamic programming over nodes sorted by distance from
  // src, following only min-path DAG edges.
  std::vector<NodeId> order;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const int du = from_src[static_cast<std::size_t>(u)];
    const int dv = to_dst[static_cast<std::size_t>(u)];
    if (du != -1 && dv != -1 && du + dv == total) order.push_back(u);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return from_src[static_cast<std::size_t>(a)] <
           from_src[static_cast<std::size_t>(b)];
  });

  std::vector<std::int64_t> count(static_cast<std::size_t>(g.num_nodes()), 0);
  count[static_cast<std::size_t>(src)] = 1;
  for (NodeId u : order) {
    const std::int64_t cu = count[static_cast<std::size_t>(u)];
    if (cu == 0) continue;
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.edge(e).dst;
      const int du = from_src[static_cast<std::size_t>(u)];
      const int dv = to_dst[static_cast<std::size_t>(v)];
      if (dv == -1) continue;
      if (du + 1 + dv != total) continue;
      auto& cv = count[static_cast<std::size_t>(v)];
      cv = std::min<std::int64_t>(cap, cv + cu);
    }
  }
  return count[static_cast<std::size_t>(dst)];
}

}  // namespace sunmap::graph
