#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "apps/apps.h"
#include "mapping/core_graph.h"
#include "route/routing.h"
#include "topo/custom.h"
#include "topo/library.h"

namespace sunmap::route {
namespace {

using topo::SlotId;

double fraction_sum(const RouteSet& routes) {
  double sum = 0.0;
  for (const auto& wp : routes.paths) sum += wp.fraction;
  return sum;
}

/// Return-value convenience over the out-param hot-path API.
RouteSet route(const RoutingEngine& engine, SlotId src, SlotId dst,
               double demand, const LoadMap& loads) {
  RouteSet out;
  engine.route(src, dst, demand, loads, out);
  return out;
}

RoutingEngine::Options split_options(int split_chunks,
                                     double capacity_hint_mbps) {
  RoutingEngine::Options options;
  options.split_chunks = split_chunks;
  options.capacity_hint_mbps = capacity_hint_mbps;
  return options;
}

TEST(RoutingKind, Labels) {
  EXPECT_STREQ(to_string(RoutingKind::kDimensionOrdered), "DO");
  EXPECT_STREQ(to_string(RoutingKind::kMinPath), "MP");
  EXPECT_STREQ(to_string(RoutingKind::kSplitMin), "SM");
  EXPECT_STREQ(to_string(RoutingKind::kSplitAll), "SA");
}

TEST(LoadMap, AccumulatesAndClears) {
  LoadMap loads(4);
  loads.add(2, 100.0);
  loads.add(2, 50.0);
  EXPECT_DOUBLE_EQ(loads.load(2), 150.0);
  EXPECT_DOUBLE_EQ(loads.max_load(), 150.0);
  loads.clear();
  EXPECT_DOUBLE_EQ(loads.max_load(), 0.0);
}

TEST(LoadMap, ClampsNearZeroNegativeResidue) {
  // Rip-up-and-reroute removes a commodity by adding its route with negative
  // demand; cancellation noise must not leave tiny negative link loads that
  // would perturb max_load() and feasibility checks.
  LoadMap loads(2);
  const double demand = 0.1;
  loads.add(0, demand);
  loads.add(0, demand);
  loads.add(0, demand);
  loads.add(0, -3 * demand);  // 3*0.1 != 0.1+0.1+0.1 in binary floating point
  EXPECT_EQ(loads.load(0), 0.0);
  EXPECT_EQ(loads.max_load(), 0.0);

  // A genuinely negative balance (a rip-up of routes that were never added)
  // is an accounting bug: it trips the debug assert, and in release builds
  // it stays visible as a negative load rather than being masked.
#ifdef NDEBUG
  loads.add(1, -1.0);
  EXPECT_LT(loads.load(1), 0.0);
#else
  EXPECT_DEATH(loads.add(1, -1.0), "negative residue beyond tolerance");
#endif
}

TEST(LoadMap, RipUpRoundTripIsExactOnIdleLinksBoundedElsewhere) {
  // On links idle before the add, an add_route/remove_route round trip
  // restores exact zero (0 + v = v and v - v = 0 are both exact in IEEE
  // arithmetic) — this is what lets the routing session trust a rebuilt
  // LoadMap bit-for-bit. Over a nonzero background the cancellation may
  // drift by an ulp per cycle, so there the guarantee is only a tight bound.
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitMin);
  LoadMap idle(mesh->switch_graph().num_edges());
  const auto victim = route(engine, 3, 12, 217.7, idle);
  for (int cycle = 0; cycle < 5; ++cycle) {
    idle.add_route(victim, 217.7);
    idle.remove_route(victim, 217.7);
    for (std::size_t e = 0; e < idle.values().size(); ++e) {
      EXPECT_EQ(idle.values()[e], 0.0) << "edge " << e << " cycle " << cycle;
    }
  }

  LoadMap loads(mesh->switch_graph().num_edges());
  const auto background = route(engine, 0, 15, 333.3, loads);
  loads.add_route(background, 333.3);
  const std::vector<double> before = loads.values();
  for (int cycle = 0; cycle < 5; ++cycle) {
    loads.add_route(victim, 217.7);
    loads.remove_route(victim, 217.7);
    const std::vector<double>& after = loads.values();
    for (std::size_t e = 0; e < before.size(); ++e) {
      EXPECT_NEAR(before[e], after[e], 1e-9)
          << "edge " << e << " cycle " << cycle;
    }
  }
}

TEST(RoutingEngine, RejectsSelfRoute) {
  const auto mesh = topo::make_mesh_for(9);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  LoadMap loads(mesh->switch_graph().num_edges());
  RouteSet out;
  EXPECT_THROW(engine.route(1, 1, 100.0, loads, out), std::invalid_argument);
}

TEST(RoutingEngine, RejectsBadConfig) {
  const auto mesh = topo::make_mesh_for(9);
  EXPECT_THROW(RoutingEngine(*mesh, RoutingKind::kSplitAll,
                             split_options(0, 500.0)),
               std::invalid_argument);
  EXPECT_THROW(RoutingEngine(*mesh, RoutingKind::kSplitAll,
                             split_options(8, -1.0)),
               std::invalid_argument);
}

TEST(RoutingEngine, MinPathStaysInsideQuadrant) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  LoadMap loads(mesh->switch_graph().num_edges());
  for (SlotId a : {0, 3, 12, 5}) {
    for (SlotId b : {15, 10, 2, 7}) {
      if (a == b) continue;
      const auto routes = route(engine, a, b, 10.0, loads);
      ASSERT_EQ(routes.paths.size(), 1u);
      const auto quadrant = mesh->quadrant_nodes(a, b);
      for (graph::NodeId u : routes.paths[0].path.nodes) {
        EXPECT_NE(std::find(quadrant.begin(), quadrant.end(), u),
                  quadrant.end());
      }
    }
  }
}

TEST(RoutingEngine, MinPathAvoidsLoadedLink) {
  const auto mesh = topo::make_mesh_for(9);  // 3x3
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  LoadMap loads(mesh->switch_graph().num_edges());
  // Route 0 -> 4 twice: the second route must avoid the first's links
  // (both L-paths have equal hops; load breaks the tie).
  const auto first = route(engine, 0, 4, 100.0, loads);
  loads.add_route(first, 100.0);
  const auto second = route(engine, 0, 4, 100.0, loads);
  EXPECT_NE(first.paths[0].path.nodes, second.paths[0].path.nodes);
}

TEST(RoutingEngine, MinPathHopsMatchTopologyMinimum) {
  for (int cores : {9, 12, 16}) {
    const auto mesh = topo::make_mesh_for(cores);
    RoutingEngine engine(*mesh, RoutingKind::kMinPath);
    LoadMap loads(mesh->switch_graph().num_edges());
    for (SlotId a = 0; a < mesh->num_slots(); ++a) {
      for (SlotId b = 0; b < mesh->num_slots(); ++b) {
        if (a == b) continue;
        const auto routes = route(engine, a, b, 1.0, loads);
        EXPECT_DOUBLE_EQ(routes.weighted_switch_hops(),
                         mesh->min_switch_hops(a, b));
      }
    }
  }
}

TEST(RoutingEngine, SplitMinUsesAllClosMiddles) {
  const auto clos = std::make_unique<topo::Clos>(4, 2, 4);
  RoutingEngine engine(*clos, RoutingKind::kSplitMin);
  LoadMap loads(clos->switch_graph().num_edges());
  const auto routes = route(engine, 0, 7, 400.0, loads);
  // All four middle switches carry 1/4 of the flow each.
  EXPECT_EQ(routes.paths.size(), 4u);
  for (const auto& wp : routes.paths) {
    EXPECT_NEAR(wp.fraction, 0.25, 1e-9);
    EXPECT_EQ(wp.path.nodes.size(), 3u);
  }
}

TEST(RoutingEngine, SplitMinHalvesDiagonalMeshFlow) {
  const auto mesh = topo::make_mesh_for(9);
  RoutingEngine engine(*mesh, RoutingKind::kSplitMin);
  LoadMap loads(mesh->switch_graph().num_edges());
  // 0 -> 4 (one-step diagonal): two minimum paths, half the flow on each
  // first link.
  const auto routes = route(engine, 0, 4, 100.0, loads);
  loads.add_route(routes, 100.0);
  EXPECT_NEAR(loads.max_load(), 50.0, 1e-9);
}

TEST(RoutingEngine, SplitMinOnButterflyIsSinglePath) {
  const auto fly = topo::make_butterfly_for(12);
  RoutingEngine engine(*fly, RoutingKind::kSplitMin);
  LoadMap loads(fly->switch_graph().num_edges());
  // No path diversity (§6.1): splitting cannot help the butterfly.
  const auto routes = route(engine, 0, 9, 910.0, loads);
  ASSERT_EQ(routes.paths.size(), 1u);
  EXPECT_NEAR(routes.paths[0].fraction, 1.0, 1e-9);
}

TEST(RoutingEngine, SplitAllSpreadsBelowCapacity) {
  const auto mesh = topo::make_mesh_for(9);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll, split_options(16, 500.0));
  LoadMap loads(mesh->switch_graph().num_edges());
  // 900 MB/s from the centre: must spread over several links to stay under
  // the 500 MB/s capacity hint.
  const auto routes = route(engine, 4, 0, 900.0, loads);
  loads.add_route(routes, 900.0);
  EXPECT_GT(routes.paths.size(), 1u);
  EXPECT_LE(loads.max_load(), 500.0 + 1e-6);
}

TEST(RoutingEngine, SplitAllZeroLoadPrefersMinimalPath) {
  const auto mesh = topo::make_mesh_for(16);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll,
                       split_options(4, 500.0));
  LoadMap loads(mesh->switch_graph().num_edges());
  const auto routes = route(engine, 0, 1, 1.0, loads);
  // Tiny demand on an idle network: all chunks take the 2-switch path.
  EXPECT_DOUBLE_EQ(routes.weighted_switch_hops(), 2.0);
}

/// The split-all chunk loop the engine's kernel must reproduce: one
/// graph::shortest_path_with per chunk over costs recomputed at every
/// relaxation, chunk paths merged by link sequence.
RouteSet reference_split_all(const topo::Topology& topology, SlotId src,
                             SlotId dst, double demand, const LoadMap& loads,
                             const RoutingEngine::Options& options) {
  const auto& g = topology.switch_graph();
  const int split_chunks = options.split_chunks;
  const double chunk =
      demand > 0.0 ? demand / static_cast<double>(split_chunks) : 0.0;
  const double hop_bias = std::max(1.0, demand * 0.01);
  std::vector<double> extra(static_cast<std::size_t>(g.num_edges()), 0.0);
  RouteSet out;
  for (int c = 0; c < split_chunks; ++c) {
    auto path = graph::shortest_path_with(
        g, topology.ingress_switch(src), topology.egress_switch(dst),
        [&](graph::EdgeId e) {
          const double current =
              loads.load(e) + extra[static_cast<std::size_t>(e)];
          double cost = hop_bias + current + chunk * 0.5;
          if (current + chunk > options.capacity_hint_mbps + 1e-9) {
            cost += 1e7;
          }
          return cost;
        },
        graph::AdmitAll{});
    if (!path) throw std::logic_error("reference: topology disconnected");
    for (graph::EdgeId e : path->edges) {
      extra[static_cast<std::size_t>(e)] += chunk;
    }
    bool merged = false;
    for (auto& wp : out.paths) {
      if (wp.path.edges == path->edges) {
        wp.fraction += 1.0 / static_cast<double>(split_chunks);
        merged = true;
        break;
      }
    }
    if (!merged) {
      out.paths.push_back(
          WeightedPath{*path, 1.0 / static_cast<double>(split_chunks)});
    }
  }
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Same paths (switches and links) in the same order, with bit-identical
/// fractions and costs.
void expect_bit_identical(const RouteSet& got, const RouteSet& want,
                          const std::string& where) {
  ASSERT_EQ(got.paths.size(), want.paths.size()) << where;
  for (std::size_t i = 0; i < got.paths.size(); ++i) {
    const auto& a = got.paths[i];
    const auto& b = want.paths[i];
    EXPECT_EQ(a.path.nodes, b.path.nodes) << where << " path " << i;
    EXPECT_EQ(a.path.edges, b.path.edges) << where << " path " << i;
    EXPECT_EQ(bits(a.fraction), bits(b.fraction)) << where << " path " << i;
    EXPECT_EQ(bits(a.path.cost), bits(b.path.cost)) << where << " path " << i;
  }
}

/// Routes `src -> dst` through the engine into a reused RouteSet and through
/// the reference, and checks the two agree bit for bit.
void expect_matches_reference(const RoutingEngine& engine,
                              const RoutingEngine::Options& options,
                              SlotId src, SlotId dst, double demand,
                              const LoadMap& loads, RouteSet& out,
                              const std::string& where) {
  engine.route(src, dst, demand, loads, out);
  expect_bit_identical(out, reference_split_all(engine.topology(), src, dst,
                                                demand, loads, options),
                       where);
}

bool has_parallel_links(const graph::DirectedGraph& g) {
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    std::set<graph::NodeId> heads;
    for (graph::EdgeId e : g.out_edges(u)) {
      if (!heads.insert(g.edge(e).dst).second) return true;
    }
  }
  return false;
}

TEST(SplitAllKernel, BitIdenticalOnEveryLibraryTopologyOfTheApps) {
  // The mapper's loop: route every commodity in decreasing order with the
  // loads accumulating, then one rip-up-and-reroute pass, on the identity
  // mapping and two seeded shuffles, over every topology the apps select
  // from (MPEG4's SDRAM flows push links past the 500 MB/s hint).
  const mapping::CoreGraph apps[] = {apps::vopd(),      apps::mpeg4(),
                                     apps::dsp_filter(), apps::netproc16(),
                                     apps::pip(),       apps::mwd()};
  const auto options = split_options(16, 500.0);
  std::mt19937 rng(13);
  RouteSet out;
  for (const auto& app : apps) {
    const auto commodities = mapping::commodities_by_value(app);
    for (const auto& topology :
         topo::standard_library(app.num_cores(), /*include_extensions=*/true)) {
      ASSERT_FALSE(has_parallel_links(topology->switch_graph()))
          << topology->name();
      RoutingEngine engine(*topology, RoutingKind::kSplitAll, options);
      std::vector<SlotId> slot(static_cast<std::size_t>(topology->num_slots()));
      std::iota(slot.begin(), slot.end(), 0);
      for (int mapping = 0; mapping < 3; ++mapping) {
        if (mapping > 0) std::shuffle(slot.begin(), slot.end(), rng);
        LoadMap loads(topology->switch_graph().num_edges());
        std::vector<RouteSet> routed(commodities.size());
        for (int pass = 0; pass < 2; ++pass) {
          for (std::size_t k = 0; k < commodities.size(); ++k) {
            const auto& d = commodities[k];
            if (pass > 0) loads.remove_route(routed[k], d.value_mbps);
            expect_matches_reference(
                engine, options, slot[static_cast<std::size_t>(d.src_core)],
                slot[static_cast<std::size_t>(d.dst_core)], d.value_mbps,
                loads, out,
                app.name() + " on " + topology->name() + " mapping " +
                    std::to_string(mapping) + " pass " +
                    std::to_string(pass) + " commodity " + std::to_string(k));
            routed[k] = out;
            loads.add_route(routed[k], d.value_mbps);
          }
        }
      }
    }
  }
}

TEST(SplitAllKernel, BitIdenticalPastOneBitsetWord) {
  const auto mesh = topo::make_mesh_for(81);  // 9x9: two bitset words
  ASSERT_GT(mesh->num_switches(), 64);
  const auto options = split_options(16, 300.0);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll, options);
  LoadMap loads(mesh->switch_graph().num_edges());
  std::mt19937 rng(5);
  std::uniform_int_distribution<SlotId> slot(0, mesh->num_slots() - 1);
  std::uniform_real_distribution<double> demand(10.0, 600.0);
  RouteSet out;
  for (int k = 0; k < 60; ++k) {
    const SlotId a = slot(rng);
    SlotId b = slot(rng);
    if (b == a) b = (a + 40) % mesh->num_slots();
    const double mbps = demand(rng);
    expect_matches_reference(engine, options, a, b, mbps, loads, out,
                             "commodity " + std::to_string(k));
    loads.add_route(out, mbps);
  }
}

TEST(SplitAllKernel, BitIdenticalWhenSlotsShareASwitch) {
  // Clos and butterfly edge switches carry several slots each, and a custom
  // topology can put both endpoints on one switch: a path with no links.
  const auto options = split_options(16, 500.0);
  std::vector<std::unique_ptr<topo::Topology>> topologies;
  topologies.push_back(topo::make_clos_for(12));
  topologies.push_back(topo::make_butterfly_for(12));
  topo::CustomTopology::Builder builder("pair_on_one_switch");
  const auto s0 = builder.add_switch();
  const auto s1 = builder.add_switch();
  builder.add_bidirectional_link(s0, s1);
  builder.attach_core(s0);
  builder.attach_core(s0);
  builder.attach_core(s1);
  topologies.push_back(builder.build());

  RouteSet out;
  for (const auto& topology : topologies) {
    RoutingEngine engine(*topology, RoutingKind::kSplitAll, options);
    LoadMap loads(topology->switch_graph().num_edges());
    int shared = 0;
    for (SlotId a = 0; a < topology->num_slots(); ++a) {
      for (SlotId b = 0; b < topology->num_slots(); ++b) {
        if (a == b || (topology->ingress_switch(a) !=
                           topology->ingress_switch(b) &&
                       topology->egress_switch(a) !=
                           topology->egress_switch(b))) {
          continue;
        }
        ++shared;
        expect_matches_reference(engine, options, a, b, 300.0, loads, out,
                                 topology->name() + " " + std::to_string(a) +
                                     "->" + std::to_string(b));
        loads.add_route(out, 300.0);
      }
    }
    EXPECT_GT(shared, 0) << topology->name();
  }

  // Both endpoints on switch s0: one single-switch path carries everything.
  const auto& custom = *topologies.back();
  RoutingEngine engine(custom, RoutingKind::kSplitAll, options);
  engine.route(0, 1, 300.0, LoadMap(custom.switch_graph().num_edges()), out);
  ASSERT_EQ(out.paths.size(), 1u);
  EXPECT_EQ(out.paths[0].path.nodes, std::vector<graph::NodeId>{s0});
  EXPECT_TRUE(out.paths[0].path.edges.empty());
  EXPECT_EQ(out.paths[0].fraction, 1.0);
}

TEST(SplitAllKernel, BitIdenticalAcrossChunkCountsAndDemands) {
  const auto mesh = topo::make_mesh_for(16);
  RouteSet out;
  for (int split_chunks : {1, 8, 16}) {
    const auto options = split_options(split_chunks, 400.0);
    RoutingEngine engine(*mesh, RoutingKind::kSplitAll, options);
    LoadMap loads(mesh->switch_graph().num_edges());
    for (double demand : {0.0, 1.0, 250.0, 900.0}) {
      for (SlotId a : {0, 5, 15}) {
        for (SlotId b : {3, 10, 12}) {
          const std::string where = std::to_string(split_chunks) +
                                    " chunks, " + std::to_string(demand) +
                                    " MB/s " + std::to_string(a) + "->" +
                                    std::to_string(b);
          expect_matches_reference(engine, options, a, b, demand, loads, out,
                                   where);
          loads.add_route(out, demand);
        }
      }
    }
  }
}

TEST(SplitAllKernel, BitIdenticalOverSeededOverloads) {
  // Background loads up to twice the hint: most links carry the overload
  // penalty, so costs tie and split at 1e7 scale.
  const auto options = split_options(16, 250.0);
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> background(0.0, 500.0);
  RouteSet out;
  for (const auto& topology : topo::standard_library(12, true)) {
    RoutingEngine engine(*topology, RoutingKind::kSplitAll, options);
    LoadMap loads(topology->switch_graph().num_edges());
    for (int e = 0; e < loads.num_edges(); ++e) loads.add(e, background(rng));
    for (SlotId a = 0; a < topology->num_slots(); a += 3) {
      for (SlotId b = 1; b < topology->num_slots(); b += 4) {
        if (a == b) continue;
        expect_matches_reference(engine, options, a, b, 480.0, loads, out,
                                 topology->name() + " " + std::to_string(a) +
                                     "->" + std::to_string(b));
      }
    }
  }
}

TEST(SplitAllKernel, BitIdenticalWithInfiniteAndNanLinkCosts) {
  const auto mesh = topo::make_mesh_for(9);  // 3x3
  const auto options = split_options(16, 500.0);
  RoutingEngine engine(*mesh, RoutingKind::kSplitAll, options);
  LoadMap loads(mesh->switch_graph().num_edges());
  const graph::EdgeId inf_link = 0;
  const graph::EdgeId nan_link = 5;
  loads.add(inf_link, std::numeric_limits<double>::infinity());
  // LoadMap::add refuses NaN in checked builds; write it into the (non-const)
  // load vector directly, as a corrupted accumulation would.
  const_cast<std::vector<double>&>(loads.values())[nan_link] =
      std::numeric_limits<double>::quiet_NaN();
  RouteSet out;
  for (SlotId a = 0; a < mesh->num_slots(); ++a) {
    for (SlotId b = 0; b < mesh->num_slots(); ++b) {
      if (a == b) continue;
      expect_matches_reference(engine, options, a, b, 200.0, loads, out,
                               std::to_string(a) + "->" + std::to_string(b));
      // A non-finite cost never reaches a switch, so no path takes one.
      for (const auto& wp : out.paths) {
        for (graph::EdgeId e : wp.path.edges) {
          EXPECT_NE(e, inf_link);
          EXPECT_NE(e, nan_link);
        }
      }
    }
  }
}

TEST(SplitAllKernel, SpreadsOverParallelLinks) {
  // Two switches joined by two bidirectional links: chunks alternate over
  // the parallel pair, and merging by link sequence keeps the halves apart
  // (merging by switch sequence once reported 400/0 MB/s on them).
  topo::CustomTopology::Builder builder("parallel_pair");
  const auto s0 = builder.add_switch();
  const auto s1 = builder.add_switch();
  builder.add_bidirectional_link(s0, s1);
  builder.add_bidirectional_link(s0, s1);
  builder.attach_core(s0);
  builder.attach_core(s1);
  const auto pair = builder.build();
  const auto& g = pair->switch_graph();
  std::vector<graph::EdgeId> forward;
  for (graph::EdgeId e : g.out_edges(s0)) forward.push_back(e);
  ASSERT_EQ(forward.size(), 2u);

  const auto options = split_options(16, 250.0);
  RoutingEngine engine(*pair, RoutingKind::kSplitAll, options);
  LoadMap loads(g.num_edges());
  const auto routes = route(engine, 0, 1, 400.0, loads);
  ASSERT_EQ(routes.paths.size(), 2u);
  for (const auto& wp : routes.paths) EXPECT_EQ(wp.fraction, 0.5);
  expect_bit_identical(
      routes, reference_split_all(*pair, 0, 1, 400.0, loads, options),
      "parallel pair");
  loads.add_route(routes, 400.0);
  EXPECT_EQ(loads.load(forward[0]), 200.0);
  EXPECT_EQ(loads.load(forward[1]), 200.0);
  EXPECT_LE(loads.max_load(), 250.0);
}

TEST(SplitAllKernel, RewritesAReusedRouteSet) {
  // The kernel writes into the caller's RouteSet in place: whatever it held
  // before (more split-all paths, or another routing kind's result) must not
  // survive into the new route.
  const auto mesh = topo::make_mesh_for(9);
  const auto options = split_options(16, 500.0);
  RoutingEngine split_all(*mesh, RoutingKind::kSplitAll, options);
  RoutingEngine split_min(*mesh, RoutingKind::kSplitMin);
  LoadMap loads(mesh->switch_graph().num_edges());

  RouteSet reused;
  split_all.route(4, 0, 900.0, loads, reused);  // spreads over several paths
  const std::size_t wide = reused.paths.size();
  ASSERT_GT(wide, 2u);
  split_all.route(0, 1, 1.0, loads, reused);  // one path
  expect_bit_identical(reused, route(split_all, 0, 1, 1.0, loads),
                       "after a wider split-all route");
  EXPECT_EQ(reused.paths.size(), 1u);
  EXPECT_EQ(fraction_sum(reused), 1.0);

  split_min.route(0, 8, 100.0, loads, reused);  // several minimum paths
  ASSERT_GT(reused.paths.size(), 1u);
  split_all.route(2, 6, 300.0, loads, reused);
  expect_bit_identical(reused, route(split_all, 2, 6, 300.0, loads),
                       "after a split-min route");
  EXPECT_EQ(fraction_sum(reused), 1.0);
}

/// The min-path Dijkstra the engine's kernel must reproduce:
/// graph::shortest_path_with under cost 1e9 + load, restricted to the
/// engine's quadrant admission mask.
RouteSet reference_min_path(const RoutingEngine& engine, SlotId src,
                            SlotId dst, const LoadMap& loads) {
  const auto& topology = engine.topology();
  const char* admitted = engine.min_path_admission(src, dst);
  auto path = graph::shortest_path_with(
      topology.switch_graph(), topology.ingress_switch(src),
      topology.egress_switch(dst),
      [&](graph::EdgeId e) { return 1e9 + loads.load(e); },
      [&](graph::NodeId u) {
        return admitted[static_cast<std::size_t>(u)] != 0;
      });
  if (!path) throw std::logic_error("reference: quadrant disconnected");
  RouteSet out;
  out.paths.push_back(WeightedPath{*path, 1.0});
  return out;
}

/// Routes `src -> dst` by min-path into a reused RouteSet and through the
/// reference, and checks the two agree bit for bit.
void expect_min_path_matches_reference(const RoutingEngine& engine,
                                       SlotId src, SlotId dst, double demand,
                                       const LoadMap& loads, RouteSet& out,
                                       const std::string& where) {
  engine.route(src, dst, demand, loads, out);
  expect_bit_identical(out, reference_min_path(engine, src, dst, loads),
                       where);
}

TEST(MinPathKernel, BitIdenticalOnEveryLibraryTopologyOfTheApps) {
  // The mapper's loop: route every commodity in decreasing order with the
  // loads accumulating, then one rip-up-and-reroute pass, on the identity
  // mapping and two seeded shuffles, over every topology the apps select
  // from, with the quadrant table the mapping search attaches.
  const mapping::CoreGraph apps[] = {apps::vopd(),      apps::mpeg4(),
                                     apps::dsp_filter(), apps::netproc16(),
                                     apps::pip(),       apps::mwd()};
  std::mt19937 rng(17);
  RouteSet out;
  for (const auto& app : apps) {
    const auto commodities = mapping::commodities_by_value(app);
    for (const auto& topology :
         topo::standard_library(app.num_cores(), /*include_extensions=*/true)) {
      const QuadrantTable table(*topology);
      RoutingEngine::Options options;
      options.quadrant_table = &table;
      RoutingEngine engine(*topology, RoutingKind::kMinPath, options);
      std::vector<SlotId> slot(static_cast<std::size_t>(topology->num_slots()));
      std::iota(slot.begin(), slot.end(), 0);
      for (int mapping = 0; mapping < 3; ++mapping) {
        if (mapping > 0) std::shuffle(slot.begin(), slot.end(), rng);
        LoadMap loads(topology->switch_graph().num_edges());
        std::vector<RouteSet> routed(commodities.size());
        for (int pass = 0; pass < 2; ++pass) {
          for (std::size_t k = 0; k < commodities.size(); ++k) {
            const auto& d = commodities[k];
            if (pass > 0) loads.remove_route(routed[k], d.value_mbps);
            expect_min_path_matches_reference(
                engine, slot[static_cast<std::size_t>(d.src_core)],
                slot[static_cast<std::size_t>(d.dst_core)], d.value_mbps,
                loads, out,
                app.name() + " on " + topology->name() + " mapping " +
                    std::to_string(mapping) + " pass " +
                    std::to_string(pass) + " commodity " + std::to_string(k));
            routed[k] = out;
            loads.add_route(routed[k], d.value_mbps);
          }
        }
      }
    }
  }
}

TEST(MinPathKernel, BitIdenticalPastOneBitsetWord) {
  const auto mesh = topo::make_mesh_for(81);  // 9x9: two bitset words
  ASSERT_GT(mesh->num_switches(), 64);
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  LoadMap loads(mesh->switch_graph().num_edges());
  std::mt19937 rng(7);
  std::uniform_int_distribution<SlotId> slot(0, mesh->num_slots() - 1);
  std::uniform_real_distribution<double> demand(10.0, 600.0);
  RouteSet out;
  int second_word = 0;
  for (int k = 0; k < 120; ++k) {
    const SlotId a = slot(rng);
    SlotId b = slot(rng);
    if (b == a) b = (a + 40) % mesh->num_slots();
    const double mbps = demand(rng);
    expect_min_path_matches_reference(engine, a, b, mbps, loads, out,
                                      "commodity " + std::to_string(k));
    for (graph::NodeId u : out.paths[0].path.nodes) second_word += u >= 64;
    loads.add_route(out, mbps);
  }
  EXPECT_GT(second_word, 0);
}

TEST(MinPathKernel, BitIdenticalWhenSlotsShareASwitch) {
  // Clos and butterfly edge switches carry several slots each, and a custom
  // topology can put both endpoints on one switch: a path with no links.
  std::vector<std::unique_ptr<topo::Topology>> topologies;
  topologies.push_back(topo::make_clos_for(12));
  topologies.push_back(topo::make_butterfly_for(12));
  topo::CustomTopology::Builder builder("pair_on_one_switch");
  const auto s0 = builder.add_switch();
  const auto s1 = builder.add_switch();
  builder.add_bidirectional_link(s0, s1);
  builder.attach_core(s0);
  builder.attach_core(s0);
  builder.attach_core(s1);
  topologies.push_back(builder.build());

  RouteSet out;
  for (const auto& topology : topologies) {
    RoutingEngine engine(*topology, RoutingKind::kMinPath);
    LoadMap loads(topology->switch_graph().num_edges());
    int shared = 0;
    for (SlotId a = 0; a < topology->num_slots(); ++a) {
      for (SlotId b = 0; b < topology->num_slots(); ++b) {
        if (a == b || (topology->ingress_switch(a) !=
                           topology->ingress_switch(b) &&
                       topology->egress_switch(a) !=
                           topology->egress_switch(b))) {
          continue;
        }
        ++shared;
        expect_min_path_matches_reference(
            engine, a, b, 300.0, loads, out,
            topology->name() + " " + std::to_string(a) + "->" +
                std::to_string(b));
        loads.add_route(out, 300.0);
      }
    }
    EXPECT_GT(shared, 0) << topology->name();
  }

  // Both endpoints on switch s0: one single-switch path of cost 0.
  const auto& custom = *topologies.back();
  RoutingEngine engine(custom, RoutingKind::kMinPath);
  engine.route(0, 1, 300.0, LoadMap(custom.switch_graph().num_edges()), out);
  ASSERT_EQ(out.paths.size(), 1u);
  EXPECT_EQ(out.paths[0].path.nodes, std::vector<graph::NodeId>{s0});
  EXPECT_TRUE(out.paths[0].path.edges.empty());
  EXPECT_EQ(out.paths[0].fraction, 1.0);
  EXPECT_EQ(out.paths[0].path.cost, 0.0);
}

TEST(MinPathKernel, BreaksExactTiesBySwitchId) {
  // Loads drawn from three exact values: equal-hop paths through the
  // quadrant often cost exactly the same, so only the settle order's
  // switch-id tie-break decides between them.
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> level(0, 2);
  RouteSet out;
  for (const int cores : {16, 36}) {
    const auto mesh = topo::make_mesh_for(cores);
    RoutingEngine engine(*mesh, RoutingKind::kMinPath);
    for (int round = 0; round < 3; ++round) {
      LoadMap loads(mesh->switch_graph().num_edges());
      for (int e = 0; e < loads.num_edges(); ++e) {
        loads.add(e, 100.0 * level(rng));
      }
      for (SlotId a = 0; a < mesh->num_slots(); ++a) {
        for (SlotId b = 0; b < mesh->num_slots(); ++b) {
          if (a == b) continue;
          expect_min_path_matches_reference(
              engine, a, b, 1.0, loads, out,
              mesh->name() + " round " + std::to_string(round) + " " +
                  std::to_string(a) + "->" + std::to_string(b));
        }
      }
    }
  }
}

TEST(MinPathKernel, BitIdenticalWithInfiniteAndNanLinkCosts) {
  const auto mesh = topo::make_mesh_for(9);  // 3x3
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  LoadMap loads(mesh->switch_graph().num_edges());
  const graph::EdgeId inf_link = 0;
  const graph::EdgeId nan_link = 5;
  loads.add(inf_link, std::numeric_limits<double>::infinity());
  // LoadMap::add refuses NaN in checked builds; write it into the (non-const)
  // load vector directly, as a corrupted accumulation would.
  const_cast<std::vector<double>&>(loads.values())[nan_link] =
      std::numeric_limits<double>::quiet_NaN();
  RouteSet out;
  int unreachable = 0;
  for (SlotId a = 0; a < mesh->num_slots(); ++a) {
    for (SlotId b = 0; b < mesh->num_slots(); ++b) {
      if (a == b) continue;
      const std::string where = std::to_string(a) + "->" + std::to_string(b);
      // A non-finite cost never reaches a switch, so no path takes one; a
      // pair whose quadrant holds no other path is unreachable.
      RouteSet want;
      try {
        want = reference_min_path(engine, a, b, loads);
      } catch (const std::logic_error&) {
        ++unreachable;
        engine.route(0, 8, 1.0, LoadMap(loads.num_edges()), out);
        EXPECT_THROW(engine.route(a, b, 1.0, loads, out), std::logic_error)
            << where;
        EXPECT_TRUE(out.paths.empty()) << where;
        continue;
      }
      engine.route(a, b, 1.0, loads, out);
      expect_bit_identical(out, want, where);
      for (graph::EdgeId e : out.paths[0].path.edges) {
        EXPECT_NE(e, inf_link) << where;
        EXPECT_NE(e, nan_link) << where;
      }
    }
  }
  EXPECT_GT(unreachable, 0);
}

TEST(MinPathKernel, FirstParallelLinkWinsATie) {
  // Two switches joined by two bidirectional links: with equal loads the
  // first link in out-edge order wins, and a lighter second link wins.
  topo::CustomTopology::Builder builder("parallel_pair");
  const auto s0 = builder.add_switch();
  const auto s1 = builder.add_switch();
  builder.add_bidirectional_link(s0, s1);
  builder.add_bidirectional_link(s0, s1);
  builder.attach_core(s0);
  builder.attach_core(s1);
  const auto pair = builder.build();
  const auto& g = pair->switch_graph();
  std::vector<graph::EdgeId> forward;
  for (graph::EdgeId e : g.out_edges(s0)) forward.push_back(e);
  ASSERT_EQ(forward.size(), 2u);

  RoutingEngine engine(*pair, RoutingKind::kMinPath);
  LoadMap loads(g.num_edges());
  RouteSet out;
  expect_min_path_matches_reference(engine, 0, 1, 100.0, loads, out, "idle");
  EXPECT_EQ(out.paths[0].path.edges,
            std::vector<graph::EdgeId>{forward[0]});
  loads.add(forward[0], 100.0);
  loads.add(forward[1], 100.0);
  expect_min_path_matches_reference(engine, 0, 1, 100.0, loads, out, "tied");
  EXPECT_EQ(out.paths[0].path.edges,
            std::vector<graph::EdgeId>{forward[0]});
  loads.add(forward[0], 50.0);
  expect_min_path_matches_reference(engine, 0, 1, 100.0, loads, out,
                                    "first heavier");
  EXPECT_EQ(out.paths[0].path.edges,
            std::vector<graph::EdgeId>{forward[1]});
}

TEST(MinPathKernel, RewritesASplitAllRouteSet) {
  // Min-path writes its one path over the caller's RouteSet in place: the
  // extra paths of an earlier split-all route must not survive.
  const auto mesh = topo::make_mesh_for(9);
  RoutingEngine split_all(*mesh, RoutingKind::kSplitAll,
                          split_options(16, 500.0));
  RoutingEngine min_path(*mesh, RoutingKind::kMinPath);
  LoadMap loads(mesh->switch_graph().num_edges());
  RouteSet reused;
  split_all.route(4, 0, 900.0, loads, reused);
  ASSERT_GT(reused.paths.size(), 2u);
  expect_min_path_matches_reference(min_path, 2, 6, 300.0, loads, reused,
                                    "after a split-all route");
  ASSERT_EQ(reused.paths.size(), 1u);
  EXPECT_EQ(reused.paths[0].fraction, 1.0);
}

TEST(MinPathKernel, NegativeCostThrowsAndLeavesTheRouteSetEmpty) {
  const auto mesh = topo::make_mesh_for(9);  // 3x3
  RoutingEngine engine(*mesh, RoutingKind::kMinPath);
  LoadMap loads(mesh->switch_graph().num_edges());
  RouteSet out;
  engine.route(0, 1, 100.0, loads, out);
  ASSERT_EQ(out.paths.size(), 1u);
  ASSERT_EQ(out.paths[0].path.edges.size(), 1u);
  // Slot 0 -> 1 has one admitted link; a load below -1e9 makes its cost
  // negative (LoadMap::add would assert on it, so write it directly).
  const graph::EdgeId link = out.paths[0].path.edges[0];
  const_cast<std::vector<double>&>(loads.values())[link] = -2e9;
  EXPECT_THROW(engine.route(0, 1, 100.0, loads, out), std::invalid_argument);
  EXPECT_TRUE(out.paths.empty());
}

class AllKindsAllTopologies
    : public ::testing::TestWithParam<std::tuple<RoutingKind, int>> {};

TEST_P(AllKindsAllTopologies, FractionsSumToOneAndLoadsConserve) {
  const auto [kind, topo_index] = GetParam();
  auto library = topo::standard_library(12, /*include_extensions=*/true);
  const auto& topology = *library[static_cast<std::size_t>(topo_index)];
  RoutingEngine engine(topology, kind, split_options(8, 500.0));
  LoadMap loads(topology.switch_graph().num_edges());
  for (SlotId a = 0; a < std::min(6, topology.num_slots()); ++a) {
    for (SlotId b = 0; b < std::min(6, topology.num_slots()); ++b) {
      if (a == b) continue;
      const double demand = 100.0;
      const auto routes = route(engine, a, b, demand, loads);
      EXPECT_NEAR(fraction_sum(routes), 1.0, 1e-9);

      // Total added load equals demand x weighted link hops.
      LoadMap delta(topology.switch_graph().num_edges());
      delta.add_route(routes, demand);
      double total = 0.0;
      for (double v : delta.values()) total += v;
      EXPECT_NEAR(total, demand * routes.weighted_link_hops(), 1e-6);

      // Every path starts and ends at the right switches.
      for (const auto& wp : routes.paths) {
        EXPECT_EQ(wp.path.nodes.front(), topology.ingress_switch(a));
        EXPECT_EQ(wp.path.nodes.back(), topology.egress_switch(b));
      }
      loads.add_route(routes, demand);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllKindsAllTopologies,
    ::testing::Combine(::testing::Values(RoutingKind::kDimensionOrdered,
                                         RoutingKind::kMinPath,
                                         RoutingKind::kSplitMin,
                                         RoutingKind::kSplitAll),
                       ::testing::Range(0, 6)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_topo" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sunmap::route
