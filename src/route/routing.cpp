#include "route/routing.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace sunmap::route {

namespace {

/// Hop-cost base that dominates any realistic accumulated load (MB/s), so
/// minimum-path Dijkstra is lexicographic: fewest hops first, then least
/// congested (Fig 5 steps 3-6 route commodities over edge weights that grow
/// with already-routed traffic).
constexpr double kHopCost = 1e9;

}  // namespace

/// Reusable per-thread routing buffers: the mapping search routes
/// commodities by min-path and split-all millions of times per sweep (one
/// Dijkstra per min-path call, one per chunk of a split-all call), so once
/// warm a call allocates nothing.
struct RoutingEngine::Workspace {
  std::vector<double> extra;  ///< split-all, per link: this call's chunks
  std::vector<double> cost;   ///< split-all, per link: the next chunk's cost
  std::vector<double> dist;   ///< per switch, valid once reached
  std::vector<graph::EdgeId> via;   ///< per switch: link it was reached by
  std::vector<graph::NodeId> pred;  ///< per switch: tail of that link
  std::vector<std::uint64_t> reached;  ///< switch bitsets beyond one word
  std::vector<std::uint64_t> open;
  std::vector<graph::EdgeId> path;  ///< the settled path's links, last first

  /// The calling thread's workspace, its per-switch buffers sized for
  /// `num_switches` switches.
  static Workspace& local(int num_switches) {
    thread_local Workspace ws;
    const auto n = static_cast<std::size_t>(num_switches);
    ws.dist.resize(n);
    ws.via.resize(n);
    ws.pred.resize(n);
    ws.reached.resize((n + 63) / 64);
    ws.open.resize((n + 63) / 64);
    return ws;
  }

  /// Writes the path settle() left here over `wp`'s buffers.
  void write_path(graph::NodeId from, graph::NodeId to, double path_cost,
                  WeightedPath& wp) const {
    const std::size_t hops = path.size();
    wp.path.cost = path_cost;
    wp.path.edges.assign(path.rbegin(), path.rend());
    wp.path.nodes.resize(hops + 1);
    graph::NodeId v = to;
    for (std::size_t k = hops; k > 0; --k) {
      wp.path.nodes[k] = v;
      v = pred[static_cast<std::size_t>(v)];
    }
    wp.path.nodes[0] = from;
  }
};

const char* to_string(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kDimensionOrdered:
      return "DO";
    case RoutingKind::kMinPath:
      return "MP";
    case RoutingKind::kSplitMin:
      return "SM";
    case RoutingKind::kSplitAll:
      return "SA";
  }
  return "?";
}

double RouteSet::weighted_switch_hops() const {
  double hops = 0.0;
  for (const auto& wp : paths) {
    hops += wp.fraction * static_cast<double>(wp.path.nodes.size());
  }
  return hops;
}

double RouteSet::weighted_link_hops() const {
  double hops = 0.0;
  for (const auto& wp : paths) {
    hops += wp.fraction * static_cast<double>(wp.path.edges.size());
  }
  return hops;
}

bool same_routes(const RouteSet& a, const RouteSet& b) {
  if (a.paths.size() != b.paths.size()) return false;
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    if (a.paths[i].fraction != b.paths[i].fraction) return false;
    if (a.paths[i].path.nodes != b.paths[i].path.nodes) return false;
    if (a.paths[i].path.edges != b.paths[i].path.edges) return false;
  }
  return true;
}

void LoadMap::add_route(const RouteSet& routes, double demand) {
  for (const auto& wp : routes.paths) {
    for (graph::EdgeId e : wp.path.edges) add(e, demand * wp.fraction);
  }
}

void LoadMap::remove_route(const RouteSet& routes, double demand) {
  // IEEE negation is exact, so this adds exactly the negated amounts of the
  // corresponding add_route in the same edge order — the bit-exact inverse.
  add_route(routes, -demand);
}

double LoadMap::max_load() const {
  double mx = 0.0;
  for (double v : loads_) mx = std::max(mx, v);
  return mx;
}

QuadrantTable::QuadrantTable(const topo::Topology& topology)
    : num_slots_(topology.num_slots()),
      num_switches_(topology.num_switches()) {
  masks_.assign(static_cast<std::size_t>(num_slots_) *
                    static_cast<std::size_t>(num_slots_) *
                    static_cast<std::size_t>(num_switches_),
                0);
  // Build directly from quadrant_nodes() rather than the topology's
  // memoized quadrant_mask(): the engine prefers this table once attached,
  // so filling the per-topology memo here would just duplicate every mask
  // for the topology's lifetime.
  for (topo::SlotId src = 0; src < num_slots_; ++src) {
    for (topo::SlotId dst = 0; dst < num_slots_; ++dst) {
      if (src == dst) continue;
      char* mask = masks_.data() +
                   (static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(num_slots_) +
                    static_cast<std::size_t>(dst)) *
                       static_cast<std::size_t>(num_switches_);
      for (const graph::NodeId u : topology.quadrant_nodes(src, dst)) {
        mask[static_cast<std::size_t>(u)] = 1;
      }
    }
  }
}

RoutingEngine::RoutingEngine(const topo::Topology& topology, RoutingKind kind)
    : RoutingEngine(topology, kind, Options()) {}

RoutingEngine::RoutingEngine(const topo::Topology& topology, RoutingKind kind,
                             Options options)
    : topology_(topology), kind_(kind), options_(options) {
  if (options_.split_chunks < 1) {
    throw std::invalid_argument("RoutingEngine: split_chunks must be >= 1");
  }
  if (options_.capacity_hint_mbps <= 0.0) {
    throw std::invalid_argument("RoutingEngine: capacity hint must be > 0");
  }
  if (kind_ != RoutingKind::kMinPath && kind_ != RoutingKind::kSplitAll) {
    return;
  }
  const auto& g = topology_.switch_graph();
  arc_begin_.reserve(static_cast<std::size_t>(g.num_nodes()) + 1);
  arcs_.reserve(static_cast<std::size_t>(g.num_edges()));
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    arc_begin_.push_back(static_cast<int>(arcs_.size()));
    for (graph::EdgeId e : g.out_edges(u)) arcs_.push_back({e, g.edge(e).dst});
  }
  arc_begin_.push_back(static_cast<int>(arcs_.size()));
}

void RoutingEngine::route(topo::SlotId src, topo::SlotId dst, double demand,
                          const LoadMap& loads, RouteSet& out) const {
  if (src == dst) {
    out.paths.clear();
    throw std::invalid_argument("RoutingEngine: src and dst slots coincide");
  }
  // The load-adaptive kinds rewrite `out` in place; the others append to it.
  if (kind_ == RoutingKind::kDimensionOrdered ||
      kind_ == RoutingKind::kSplitMin) {
    out.paths.clear();
  }
  // One bitset word covers every library topology (<= 64 switches).
  const bool one_word = topology_.num_switches() <= 64;
  switch (kind_) {
    case RoutingKind::kDimensionOrdered:
      route_dimension_ordered(src, dst, out);
      return;
    case RoutingKind::kMinPath:
      if (one_word) {
        route_min_path<true>(src, dst, loads, out);
      } else {
        route_min_path<false>(src, dst, loads, out);
      }
      return;
    case RoutingKind::kSplitMin:
      route_split_min(src, dst, out);
      return;
    case RoutingKind::kSplitAll:
      if (one_word) {
        route_split_all<true>(src, dst, demand, loads, out);
      } else {
        route_split_all<false>(src, dst, demand, loads, out);
      }
      return;
  }
  throw std::logic_error("RoutingEngine: unknown routing kind");
}

void RoutingEngine::route_dimension_ordered(topo::SlotId src,
                                            topo::SlotId dst,
                                            RouteSet& out) const {
  out.paths.push_back(WeightedPath{
      topology_.make_path(topology_.dimension_ordered_path(src, dst)), 1.0});
}

void RoutingEngine::route_split_min(topo::SlotId src, topo::SlotId dst,
                                    RouteSet& out) const {
  const auto& g = topology_.switch_graph();
  const graph::NodeId from = topology_.ingress_switch(src);
  const graph::NodeId to = topology_.egress_switch(dst);

  if (from == to) {
    graph::Path path;
    path.nodes = {from};
    out.paths.push_back(WeightedPath{path, 1.0});
    return;
  }

  // Even flow split over the minimum-path DAG: each node forwards its
  // incoming fraction equally over its DAG out-edges, then the fractional
  // edge flow is decomposed into at most |DAG edges| weighted paths (needed
  // by the cycle-accurate simulator, which is source-routed).
  const auto dag_edges = graph::min_path_dag(g, from, to);
  std::vector<double> edge_flow(static_cast<std::size_t>(g.num_edges()), 0.0);
  std::vector<std::vector<graph::EdgeId>> dag_out(
      static_cast<std::size_t>(g.num_nodes()));
  for (graph::EdgeId e : dag_edges) {
    dag_out[static_cast<std::size_t>(g.edge(e).src)].push_back(e);
  }

  const auto dist = graph::bfs_distances(g, from);
  std::vector<graph::NodeId> order;
  order.push_back(from);
  for (graph::EdgeId e : dag_edges) order.push_back(g.edge(e).dst);
  std::sort(order.begin(), order.end(), [&](graph::NodeId a, graph::NodeId b) {
    return dist[static_cast<std::size_t>(a)] < dist[static_cast<std::size_t>(b)];
  });
  order.erase(std::unique(order.begin(), order.end()), order.end());

  std::vector<double> node_flow(static_cast<std::size_t>(g.num_nodes()), 0.0);
  node_flow[static_cast<std::size_t>(from)] = 1.0;
  for (graph::NodeId u : order) {
    const double flow = node_flow[static_cast<std::size_t>(u)];
    const auto& outs = dag_out[static_cast<std::size_t>(u)];
    if (flow <= 0.0 || outs.empty()) continue;
    const double share = flow / static_cast<double>(outs.size());
    for (graph::EdgeId e : outs) {
      edge_flow[static_cast<std::size_t>(e)] += share;
      node_flow[static_cast<std::size_t>(g.edge(e).dst)] += share;
    }
  }

  // Path decomposition: repeatedly follow the remaining positive-flow edges
  // from source to destination, peel off the bottleneck fraction.
  constexpr double kEps = 1e-12;
  double remaining = 1.0;
  while (remaining > kEps) {
    graph::Path path;
    path.nodes.push_back(from);
    double bottleneck = remaining;
    graph::NodeId cur = from;
    while (cur != to) {
      graph::EdgeId best = graph::kInvalidEdge;
      double best_flow = kEps;
      for (graph::EdgeId e : dag_out[static_cast<std::size_t>(cur)]) {
        if (edge_flow[static_cast<std::size_t>(e)] > best_flow) {
          best_flow = edge_flow[static_cast<std::size_t>(e)];
          best = e;
        }
      }
      if (best == graph::kInvalidEdge) {
        throw std::logic_error("RoutingEngine: flow decomposition stuck");
      }
      bottleneck = std::min(bottleneck, best_flow);
      path.edges.push_back(best);
      cur = g.edge(best).dst;
      path.nodes.push_back(cur);
    }
    for (graph::EdgeId e : path.edges) {
      edge_flow[static_cast<std::size_t>(e)] -= bottleneck;
    }
    path.cost = static_cast<double>(path.edges.size());
    out.paths.push_back(WeightedPath{std::move(path), bottleneck});
    remaining -= bottleneck;
  }

  // Normalise tiny floating-point residue so fractions sum to exactly 1.
  double total = 0.0;
  for (const auto& wp : out.paths) total += wp.fraction;
  for (auto& wp : out.paths) wp.fraction /= total;
}

template <bool kOneWord, typename Admit, typename Cost>
double RoutingEngine::settle(Workspace& ws, graph::NodeId from,
                             graph::NodeId to, const Admit& admit,
                             const Cost& cost, RouteSet& out) const {
  // Dijkstra that settles the least (distance, switch id) among reached,
  // unsettled ("open") switches: the settle order, and so the tie-breaks,
  // of graph::shortest_path's lazy heap. Arcs relax in out-edge order,
  // on strict improvement only. A switch is unreached until its first
  // strict improvement over +inf, so an inf or NaN cost never reaches one.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int words = kOneWord ? 1 : (topology_.num_switches() + 63) / 64;
  double* const dist = ws.dist.data();
  graph::EdgeId* const via = ws.via.data();
  graph::NodeId* const pred = ws.pred.data();
  // One word lives in registers; several live in the workspace.
  std::uint64_t reached_word = 0;
  std::uint64_t open_word = 0;
  std::uint64_t* const reached = kOneWord ? &reached_word : ws.reached.data();
  std::uint64_t* const open = kOneWord ? &open_word : ws.open.data();
  const auto word_of = [](graph::NodeId v) { return kOneWord ? 0 : v >> 6; };
  const auto bit_of = [](graph::NodeId v) {
    return std::uint64_t{1} << (v & 63);
  };
  const Arc* const arcs = arcs_.data();
  const int* const arc_begin = arc_begin_.data();

  for (int w = 0; w < words; ++w) reached[w] = open[w] = 0;
  bool found = false;
  if (admit(from) && admit(to)) {
    reached[word_of(from)] |= bit_of(from);
    open[word_of(from)] |= bit_of(from);
    dist[from] = 0.0;
    for (;;) {
      int u = -1;
      double du = 0.0;
      for (int w = 0; w < words; ++w) {
        for (std::uint64_t bits = open[w]; bits != 0; bits &= bits - 1) {
          const int v = (w << 6) | std::countr_zero(bits);
          if (u < 0 || dist[v] < du) {
            u = v;
            du = dist[v];
          }
        }
      }
      if (u < 0) break;
      open[word_of(u)] &= ~bit_of(u);
      if (u == to) {
        found = true;
        break;
      }
      for (int a = arc_begin[u]; a < arc_begin[u + 1]; ++a) {
        const graph::NodeId v = arcs[a].head;
        if (!admit(v)) continue;
        const int w = word_of(v);
        const std::uint64_t bit = bit_of(v);
        const bool seen = (reached[w] & bit) != 0;
        if (seen && (open[w] & bit) == 0) continue;  // settled
        const double step = cost(arcs[a].link);
        if (step < 0.0) {
          out.paths.clear();
          throw std::invalid_argument("RoutingEngine: negative link cost");
        }
        const double nd = du + step;
        if (nd < (seen ? dist[v] : kInf)) {
          dist[v] = nd;
          via[v] = arcs[a].link;
          pred[v] = u;
          reached[w] |= bit;
          open[w] |= bit;
        }
      }
    }
  }
  if (!found) {
    out.paths.clear();
    throw std::logic_error(
        "RoutingEngine: no admitted path between the endpoint switches "
        "(topology bug)");
  }

  ws.path.clear();
  for (graph::NodeId v = to; v != from; v = pred[v]) ws.path.push_back(via[v]);
  return dist[to];
}

template <bool kOneWord>
void RoutingEngine::route_min_path(topo::SlotId src, topo::SlotId dst,
                                   const LoadMap& loads, RouteSet& out) const {
  // Quadrant graph of §4.3: restrict the search to the switches that can
  // lie on a minimum path, which both guarantees minimality and gives the
  // computational savings the paper reports. Each link is priced as it is
  // relaxed, from the caller's loads.
  const char* const admitted = min_path_admission(src, dst);
  const double* const load = loads.values().data();
  const graph::NodeId from = topology_.ingress_switch(src);
  const graph::NodeId to = topology_.egress_switch(dst);
  Workspace& ws = Workspace::local(topology_.num_switches());
  const double cost = settle<kOneWord>(
      ws, from, to, [admitted](graph::NodeId u) { return admitted[u] != 0; },
      [load](graph::EdgeId e) { return kHopCost + load[e]; }, out);
  out.paths.resize(1);
  out.paths[0].fraction = 1.0;
  ws.write_path(from, to, cost, out.paths[0]);
}

template <bool kOneWord>
void RoutingEngine::route_split_all(topo::SlotId src, topo::SlotId dst,
                                    double demand, const LoadMap& loads,
                                    RouteSet& out) const {
  // Split-across-all-paths: divide the commodity into equal chunks and route
  // each chunk with congestion-aware Dijkstra over the full switch graph
  // (non-minimal paths allowed), accounting for the chunks already placed.
  const graph::NodeId from = topology_.ingress_switch(src);
  const graph::NodeId to = topology_.egress_switch(dst);

  const int num_links = static_cast<int>(arcs_.size());
  const int split_chunks = options_.split_chunks;
  const double fraction = 1.0 / static_cast<double>(split_chunks);
  const double chunk =
      demand > 0.0 ? demand / static_cast<double>(split_chunks) : 0.0;
  // A small per-hop bias keeps zero-load routes minimal.
  const double hop_bias = std::max(1.0, demand * 0.01);

  Workspace& ws = Workspace::local(topology_.num_switches());
  ws.extra.assign(static_cast<std::size_t>(num_links), 0.0);
  ws.cost.resize(static_cast<std::size_t>(num_links));
  double* const extra = ws.extra.data();
  double* const cost = ws.cost.data();

  // Soft capacity: a sub-flow strongly avoids links it would push past the
  // capacity hint, which is what lets the heavy MPEG4 SDRAM flows spread
  // around already-loaded links instead of stacking onto them. Costs start
  // from the caller's loads and change only on the links each chunk takes.
  constexpr double kOverloadPenalty = 1e7;
  const auto link_cost = [&](graph::EdgeId e) {
    const double current = loads.load(e) + extra[e];
    double c = hop_bias + current + chunk * 0.5;
    if (current + chunk > options_.capacity_hint_mbps + 1e-9) {
      c += kOverloadPenalty;
    }
    return c;
  };
  for (graph::EdgeId e = 0; e < num_links; ++e) cost[e] = link_cost(e);

  std::size_t used = 0;
  for (int c = 0; c < split_chunks; ++c) {
    const double path_cost = settle<kOneWord>(
        ws, from, to, graph::AdmitAll{},
        [cost](graph::EdgeId e) { return cost[e]; }, out);
    const std::size_t hops = ws.path.size();
    for (graph::EdgeId e : ws.path) {
      extra[e] += chunk;
      cost[e] = link_cost(e);
    }

    // Merge a chunk that repeats an earlier chunk's link sequence; parallel
    // links make equal switch sequences distinct paths.
    bool merged = false;
    for (std::size_t i = 0; i < used; ++i) {
      const auto& links = out.paths[i].path.edges;
      if (links.size() == hops &&
          std::equal(links.rbegin(), links.rend(), ws.path.begin())) {
        out.paths[i].fraction += fraction;
        merged = true;
        break;
      }
    }
    if (merged) continue;

    // Write the new path over a stale entry's buffers when there is one.
    if (used == out.paths.size()) out.paths.emplace_back();
    WeightedPath& wp = out.paths[used++];
    wp.fraction = fraction;
    ws.write_path(from, to, path_cost, wp);
  }
  out.paths.erase(out.paths.begin() + static_cast<std::ptrdiff_t>(used),
                  out.paths.end());
}

}  // namespace sunmap::route
