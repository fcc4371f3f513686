#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace sunmap::graph {

/// A concrete path through a graph: node sequence plus the edges that join
/// consecutive nodes, and the total cost under the weight function used to
/// find it. nodes.size() == edges.size() + 1 and nodes.front()/back() are the
/// endpoints. A single-node path (source == target) has no edges.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  double cost = 0.0;

  [[nodiscard]] int hops() const { return static_cast<int>(edges.size()); }
};

/// Per-edge cost callback for Dijkstra. Must return a non-negative cost.
using EdgeCostFn = std::function<double(EdgeId)>;

/// Node admission callback; nodes for which this returns false are never
/// relaxed (used to restrict searches to a quadrant graph).
using NodeFilterFn = std::function<bool(NodeId)>;

namespace detail {

/// Reusable per-thread Dijkstra workspace, so repeated calls over small
/// graphs (a test's reference loop, a custom topology's dimension-ordered
/// routes) do not allocate per call.
struct DijkstraWorkspace {
  std::vector<double> dist;
  std::vector<EdgeId> via;
  std::vector<char> done;
  std::vector<std::pair<double, NodeId>> heap;
};

/// The calling thread's workspace (one instance shared by every
/// instantiation of shortest_path_with, so template callers and the
/// std::function wrapper reuse the same buffers).
DijkstraWorkspace& dijkstra_workspace();

}  // namespace detail

/// Dijkstra shortest path from src to dst, templated over the cost and
/// admission functors: the engine of shortest_path() below, and the
/// reference oracle the routing engine's min-path and split-all kernels are
/// tested against (tests/routing_test.cpp). The heap is driven with
/// push_heap/pop_heap under the same comparator that std::priority_queue
/// uses, so the settle order — least (distance, node id) first, and
/// therefore the tie-breaking among equal-cost paths — is the one those
/// kernels reproduce.
template <typename CostFn, typename FilterFn>
std::optional<Path> shortest_path_with(const DirectedGraph& g, NodeId src,
                                       NodeId dst, const CostFn& cost,
                                       const FilterFn& filter) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  if (src < 0 || dst < 0 || src >= g.num_nodes() || dst >= g.num_nodes()) {
    throw std::out_of_range("shortest_path: endpoint out of range");
  }
  if (!filter(src) || !filter(dst)) return std::nullopt;

  constexpr double kInf = std::numeric_limits<double>::infinity();

  detail::DijkstraWorkspace& ws = detail::dijkstra_workspace();
  ws.dist.assign(n, kInf);
  ws.via.assign(n, kInvalidEdge);
  ws.done.assign(n, 0);
  ws.heap.clear();

  auto& dist = ws.dist;
  auto& via = ws.via;
  auto& done = ws.done;
  auto& heap = ws.heap;

  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace_back(0.0, src);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (done[static_cast<std::size_t>(u)] != 0) continue;
    done[static_cast<std::size_t>(u)] = 1;
    if (u == dst) break;
    for (EdgeId e : g.out_edges(u)) {
      const NodeId v = g.edge(e).dst;
      if (!filter(v) || done[static_cast<std::size_t>(v)] != 0) {
        continue;
      }
      const double w = cost(e);
      if (w < 0.0) {
        throw std::invalid_argument("shortest_path: negative edge cost");
      }
      const double nd = d + w;
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        via[static_cast<std::size_t>(v)] = e;
        heap.emplace_back(nd, v);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }

  if (dist[static_cast<std::size_t>(dst)] == kInf) return std::nullopt;

  Path path;
  path.cost = dist[static_cast<std::size_t>(dst)];
  NodeId cur = dst;
  while (cur != src) {
    const EdgeId e = via[static_cast<std::size_t>(cur)];
    path.edges.push_back(e);
    path.nodes.push_back(cur);
    cur = g.edge(e).src;
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

/// Admission functor admitting every node (the unfiltered template case).
struct AdmitAll {
  bool operator()(NodeId) const { return true; }
};

/// Dijkstra shortest path from src to dst under `cost`, optionally restricted
/// to nodes admitted by `filter` (src and dst must themselves be admitted).
/// Returns std::nullopt if dst is unreachable. Type-erased convenience
/// wrapper over shortest_path_with().
std::optional<Path> shortest_path(const DirectedGraph& g, NodeId src,
                                  NodeId dst, const EdgeCostFn& cost,
                                  const NodeFilterFn& filter = nullptr);

/// Unweighted (hop-count) BFS distances from src to every node; unreachable
/// nodes get -1. Optionally restricted by `filter`.
std::vector<int> bfs_distances(const DirectedGraph& g, NodeId src,
                               const NodeFilterFn& filter = nullptr);

/// Unweighted BFS distances *to* dst (i.e. along reversed edges).
std::vector<int> bfs_distances_to(const DirectedGraph& g, NodeId dst,
                                  const NodeFilterFn& filter = nullptr);

/// All-pairs hop-distance matrix (BFS from every node); dist[u][v] == -1 for
/// unreachable pairs.
std::vector<std::vector<int>> all_pairs_hops(const DirectedGraph& g);

/// True if every node can reach every other node (strong connectivity).
bool strongly_connected(const DirectedGraph& g);

/// The minimum-path DAG between src and dst: the set of edges (u,v) with
/// d(src,u) + 1 + d(v,dst) == d(src,dst), optionally restricted by `filter`.
/// This is the structure over which split-traffic-across-minimum-paths (SM)
/// routing distributes flow. Returns an empty vector when dst is unreachable.
std::vector<EdgeId> min_path_dag(const DirectedGraph& g, NodeId src,
                                 NodeId dst,
                                 const NodeFilterFn& filter = nullptr);

/// Nodes u lying on at least one minimum-hop path src->dst, i.e. satisfying
/// d(src,u) + d(u,dst) == d(src,dst). This is the generic quadrant-graph
/// construction; the structural per-topology constructions in src/topo must
/// agree with it (asserted by property tests).
std::vector<NodeId> min_path_nodes(const DirectedGraph& g, NodeId src,
                                   NodeId dst);

/// Counts distinct minimum-hop paths src->dst (capped at `cap` to avoid
/// overflow on very diverse graphs). Used to characterise path diversity,
/// e.g. butterfly == 1 for all pairs.
std::int64_t count_min_paths(const DirectedGraph& g, NodeId src, NodeId dst,
                             std::int64_t cap = 1'000'000'000);

}  // namespace sunmap::graph
