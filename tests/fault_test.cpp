// Fault-injection and degraded-mode evaluation tests: scenario
// materialization, masked routing on the surviving subgraph (randomized,
// cross-checked against an independent reachability search), the penalty
// semantics of disconnected scenarios, and bit-identity between the
// EvalContext's degraded-path table and the from-scratch Mapper reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "apps/apps.h"
#include "fault/fault.h"
#include "io/exploration_io.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "select/explorer.h"
#include "topo/custom.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::fault {
namespace {

/// A 6-switch custom topology with one articulation link: cutting 2-3
/// disconnects the two triangles. Six core slots, one per switch.
std::unique_ptr<topo::Topology> barbell6() {
  topo::CustomTopology::Builder builder("barbell6");
  std::vector<graph::NodeId> s;
  for (int i = 0; i < 6; ++i) s.push_back(builder.add_switch());
  builder.add_bidirectional_link(s[0], s[1]);
  builder.add_bidirectional_link(s[1], s[2]);
  builder.add_bidirectional_link(s[2], s[0]);
  builder.add_bidirectional_link(s[3], s[4]);
  builder.add_bidirectional_link(s[4], s[5]);
  builder.add_bidirectional_link(s[5], s[3]);
  builder.add_bidirectional_link(s[2], s[3]);
  for (int i = 0; i < 6; ++i) builder.attach_core(s[i]);
  return builder.build();
}

std::vector<std::unique_ptr<topo::Topology>> fault_test_topologies() {
  std::vector<std::unique_ptr<topo::Topology>> topologies;
  topologies.push_back(topo::make_mesh_for(16));
  topologies.push_back(topo::make_torus_for(16));
  topologies.push_back(topo::make_butterfly_for(16));
  topologies.push_back(barbell6());
  return topologies;
}

/// Independent reachability check, deliberately not sharing code with
/// masked_bfs: iterate-to-fixpoint over the alive adjacency.
bool reachable_under_mask(const graph::DirectedGraph& g,
                          const ScenarioMask& mask, graph::NodeId src,
                          graph::NodeId dst) {
  if (mask.switch_alive[static_cast<std::size_t>(src)] == 0) return false;
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  seen[static_cast<std::size_t>(src)] = 1;
  bool grew = true;
  while (grew) {
    grew = false;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      if (mask.edge_alive[static_cast<std::size_t>(e)] == 0) continue;
      const auto& edge = g.edge(e);
      if (seen[static_cast<std::size_t>(edge.src)] == 0) continue;
      if (mask.switch_alive[static_cast<std::size_t>(edge.dst)] == 0) continue;
      if (seen[static_cast<std::size_t>(edge.dst)] == 0) {
        seen[static_cast<std::size_t>(edge.dst)] = 1;
        grew = true;
      }
    }
  }
  return seen[static_cast<std::size_t>(dst)] != 0;
}

TEST(FaultScenarios, EveryLinkCoversEachPhysicalChannelOnce) {
  const auto mesh = topo::make_mesh_for(16);
  const auto links = physical_links(*mesh);
  // A 4x4 mesh has 2*4*3 = 24 bidirectional channels.
  EXPECT_EQ(links.size(), 24u);
  for (const auto& link : links) EXPECT_LT(link.a, link.b);

  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kEveryLink;
  const auto scenarios = materialize(spec, *mesh);
  ASSERT_EQ(scenarios.size(), links.size());
  for (const auto& scenario : scenarios) {
    // Each bidirectional channel fails as its two directed edges.
    EXPECT_EQ(scenario.failed_edges.size(), 2u);
    EXPECT_TRUE(scenario.failed_switches.empty());
  }

  // On the unidirectional stage links of a butterfly every scenario removes
  // exactly one directed edge.
  const auto fly = topo::make_butterfly_for(16);
  const auto fly_scenarios = materialize(spec, *fly);
  EXPECT_EQ(fly_scenarios.size(), physical_links(*fly).size());
  for (const auto& scenario : fly_scenarios) {
    EXPECT_EQ(scenario.failed_edges.size(), 1u);
  }
}

TEST(FaultScenarios, RandomScenariosAreSeededAndDistinct) {
  const auto mesh = topo::make_mesh_for(16);
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kRandom;
  spec.num_scenarios = 5;
  spec.faults_per_scenario = 2;
  spec.seed = 42;
  const auto scenarios = materialize(spec, *mesh);
  ASSERT_EQ(scenarios.size(), 5u);
  for (const auto& scenario : scenarios) {
    // Two distinct channels -> four distinct directed edges.
    std::set<graph::EdgeId> edges(scenario.failed_edges.begin(),
                                  scenario.failed_edges.end());
    EXPECT_EQ(edges.size(), 4u);
  }
  // Same seed reproduces the same draw; a different seed changes it.
  const auto again = materialize(spec, *mesh);
  ASSERT_EQ(again.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(again[i].failed_edges, scenarios[i].failed_edges);
  }
  spec.seed = 43;
  const auto other = materialize(spec, *mesh);
  bool any_differs = false;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    any_differs = any_differs ||
                  other[i].failed_edges != scenarios[i].failed_edges;
  }
  EXPECT_TRUE(any_differs);
}

TEST(FaultScenarios, ExplicitSpecsValidatePerTopology) {
  const auto mesh = topo::make_mesh_for(16);
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kExplicit;
  // Switches 0 and 5 are not adjacent on the 4x4 mesh: the link fault
  // matches no edge and removes nothing (one spec can sweep a library).
  spec.scenarios.push_back({{{0, 5}}, {}});
  const auto scenarios = materialize(spec, *mesh);
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_TRUE(scenarios[0].failed_edges.empty());

  // Out-of-range ids fail loudly at materialize (bind) time, naming the
  // topology and the value, instead of corrupting masks mid-search.
  FaultSpec bad_switch;
  bad_switch.kind = FaultSpec::Kind::kExplicit;
  bad_switch.scenarios.push_back({{}, {99}});
  EXPECT_THROW(materialize(bad_switch, *mesh), std::invalid_argument);
  FaultSpec bad_link;
  bad_link.kind = FaultSpec::Kind::kExplicit;
  bad_link.scenarios.push_back({{{0, 99}}, {}});
  EXPECT_THROW(materialize(bad_link, *mesh), std::invalid_argument);
}

TEST(FaultRouting, MaskedPathsUseOnlySurvivingHardware) {
  // Randomized property: on every topology family, under k random dead
  // channels (and sometimes a dead switch), every commodity either routes
  // edge-by-edge over surviving hardware or is reported unreachable in
  // agreement with an independent reachability search. Never a crash.
  util::Prng prng(2026);
  for (const auto& topology : fault_test_topologies()) {
    SCOPED_TRACE(topology->name());
    const auto& g = topology->switch_graph();
    const auto links = physical_links(*topology);
    for (int trial = 0; trial < 12; ++trial) {
      FaultScenario scenario;
      const int k = 1 + static_cast<int>(prng.next_below(3));
      FaultSpec spec;
      spec.kind = FaultSpec::Kind::kRandom;
      spec.num_scenarios = 1;
      spec.faults_per_scenario = k;
      spec.seed = 1000u + static_cast<std::uint64_t>(trial);
      scenario = materialize(spec, *topology)[0];
      if (trial % 3 == 0) {
        // Sometimes also kill a random switch outright.
        scenario.failed_switches.push_back(static_cast<graph::NodeId>(
            prng.next_below(static_cast<std::uint64_t>(g.num_nodes()))));
      }
      ScenarioMask mask;
      make_mask(g, scenario, mask);
      MaskedBfs bfs;
      graph::Path path;
      for (int src = 0; src < topology->num_slots(); ++src) {
        const graph::NodeId ingress = topology->ingress_switch(src);
        masked_bfs(g, ingress, mask, bfs);
        for (int dst = 0; dst < topology->num_slots(); ++dst) {
          const graph::NodeId egress = topology->egress_switch(dst);
          const bool routed = extract_path(g, bfs, ingress, egress, path);
          EXPECT_EQ(routed,
                    reachable_under_mask(g, mask, ingress, egress))
              << "slots " << src << "->" << dst;
          if (!routed) continue;
          ASSERT_EQ(path.nodes.size(), path.edges.size() + 1);
          EXPECT_EQ(path.nodes.front(), ingress);
          EXPECT_EQ(path.nodes.back(), egress);
          for (const graph::NodeId node : path.nodes) {
            EXPECT_NE(mask.switch_alive[static_cast<std::size_t>(node)], 0);
          }
          for (std::size_t i = 0; i < path.edges.size(); ++i) {
            const graph::EdgeId e = path.edges[i];
            EXPECT_NE(mask.edge_alive[static_cast<std::size_t>(e)], 0);
            EXPECT_EQ(g.edge(e).src, path.nodes[i]);
            EXPECT_EQ(g.edge(e).dst, path.nodes[i + 1]);
          }
        }
      }
    }
  }
}

mapping::CoreGraph two_triangles() {
  mapping::CoreGraph app("two-triangles");
  for (int i = 0; i < 6; ++i) app.add_core("c" + std::to_string(i), 1.0);
  app.add_flow(0, 1, 100.0);
  app.add_flow(1, 2, 80.0);
  app.add_flow(2, 3, 120.0);  // crosses the barbell articulation link
  app.add_flow(3, 4, 90.0);
  app.add_flow(4, 5, 60.0);
  return app;
}

TEST(FaultEval, DisconnectedScenarioIsPenalizedNotFatal) {
  const auto app = two_triangles();
  const auto topology = barbell6();
  std::vector<int> identity = {0, 1, 2, 3, 4, 5};

  mapping::MapperConfig plain;
  const mapping::Mapper base_mapper(plain);
  const auto base = base_mapper.evaluate(app, *topology, identity);
  EXPECT_TRUE(base.fault_outcomes.empty());
  EXPECT_EQ(base.worst_fault_cost, 0.0);
  EXPECT_EQ(base.infeasible_fault_scenarios, 0);

  mapping::MapperConfig config;
  config.faults.spec.kind = FaultSpec::Kind::kExplicit;
  // Scenario 0 cuts the articulation link 2-3: commodity 2->3 becomes
  // unroutable. Scenario 1 cuts a triangle edge: everything re-routes.
  config.faults.spec.scenarios.push_back({{{2, 3}}, {}});
  config.faults.spec.scenarios.push_back({{{0, 1}}, {}});
  const mapping::Mapper mapper(config);
  const auto eval = mapper.evaluate(app, *topology, identity);

  ASSERT_EQ(eval.fault_outcomes.size(), 2u);
  EXPECT_FALSE(eval.fault_outcomes[0].connected);
  EXPECT_TRUE(eval.fault_outcomes[1].connected);
  EXPECT_EQ(eval.infeasible_fault_scenarios, 1);
  // The disconnected scenario costs exactly penalty x fault-free cost, and
  // under worst-case aggregation that is the evaluation's cost.
  EXPECT_EQ(eval.fault_outcomes[0].cost,
            config.faults.infeasible_penalty * base.cost);
  EXPECT_EQ(eval.worst_fault_cost, eval.fault_outcomes[0].cost);
  EXPECT_EQ(eval.cost, eval.fault_outcomes[0].cost);
  EXPECT_GE(eval.cost, base.cost);

  // A dead attachment switch degrades to the same verdict through the full
  // search, not an exception: map() completes and reports the penalty.
  mapping::MapperConfig dead_switch;
  dead_switch.faults.spec.kind = FaultSpec::Kind::kExplicit;
  dead_switch.faults.spec.scenarios.push_back({{}, {0}});
  const mapping::Mapper searcher(dead_switch);
  const auto result = searcher.map(app, *topology);
  EXPECT_EQ(result.eval.infeasible_fault_scenarios, 1);
  EXPECT_GT(result.eval.cost, 0.0);

  // The same verdict flows through the transactional search strategies.
  mapping::MapperConfig annealed = dead_switch;
  annealed.search = mapping::SearchKind::kAnnealing;
  annealed.annealing_iterations = 200;
  const mapping::Mapper annealer(annealed);
  const auto sa_result = annealer.map(app, *topology);
  EXPECT_EQ(sa_result.eval.infeasible_fault_scenarios, 1);
}

TEST(FaultEval, WeightedAggregationAveragesScenarioCosts) {
  const auto app = two_triangles();
  const auto topology = barbell6();
  std::vector<int> identity = {0, 1, 2, 3, 4, 5};

  mapping::MapperConfig config;
  config.faults.spec.kind = FaultSpec::Kind::kExplicit;
  config.faults.spec.scenarios.push_back({{{2, 3}}, {}});
  config.faults.spec.scenarios.push_back({{{0, 1}}, {}});
  config.faults.aggregation = Aggregation::kWeighted;
  const mapping::Mapper mapper(config);
  const auto eval = mapper.evaluate(app, *topology, identity);

  mapping::MapperConfig plain;
  const auto base =
      mapping::Mapper(plain).evaluate(app, *topology, identity);
  ASSERT_EQ(eval.fault_outcomes.size(), 2u);
  // The mean of the fault-free cost and every scenario cost.
  const double expected =
      (base.cost + eval.fault_outcomes[0].cost + eval.fault_outcomes[1].cost) /
      3.0;
  EXPECT_EQ(eval.cost, expected);
  // Each aggregated term is >= the fault-free cost's lower bound, so the
  // mean stays >= it too (the pruning-admissibility invariant).
  EXPECT_GE(eval.fault_outcomes[0].cost, base.cost);
}

void expect_fault_identical(const mapping::Evaluation& a,
                            const mapping::Evaluation& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.worst_fault_cost, b.worst_fault_cost);
  EXPECT_EQ(a.infeasible_fault_scenarios, b.infeasible_fault_scenarios);
  ASSERT_EQ(a.fault_outcomes.size(), b.fault_outcomes.size());
  for (std::size_t s = 0; s < a.fault_outcomes.size(); ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    EXPECT_EQ(a.fault_outcomes[s].connected, b.fault_outcomes[s].connected);
    EXPECT_EQ(a.fault_outcomes[s].avg_switch_hops,
              b.fault_outcomes[s].avg_switch_hops);
    EXPECT_EQ(a.fault_outcomes[s].dynamic_power_mw,
              b.fault_outcomes[s].dynamic_power_mw);
    EXPECT_EQ(a.fault_outcomes[s].cost, b.fault_outcomes[s].cost);
    EXPECT_EQ(a.fault_outcomes[s].max_link_load_mbps,
              b.fault_outcomes[s].max_link_load_mbps);
  }
}

TEST(FaultEval, ContextMatchesFromScratchReferenceUnderFaults) {
  // The cached EvalContext fault path (prebuilt per-scenario BFS tables)
  // must reproduce the from-scratch Mapper::evaluate() reference bit for
  // bit, across topology families, objectives, and both aggregations.
  const auto app = apps::vopd();
  for (const auto& topology : fault_test_topologies()) {
    if (topology->num_slots() < app.num_cores()) continue;
    std::vector<int> mapping;
    for (int core = 0; core < app.num_cores(); ++core) {
      mapping.push_back((core * 5 + 3) % topology->num_slots());
    }
    std::sort(mapping.begin(), mapping.end());
    mapping.erase(std::unique(mapping.begin(), mapping.end()), mapping.end());
    while (static_cast<int>(mapping.size()) < app.num_cores()) {
      // Refill collisions with the smallest unused slots.
      for (int slot = 0; slot < topology->num_slots() &&
                         static_cast<int>(mapping.size()) < app.num_cores();
           ++slot) {
        if (std::find(mapping.begin(), mapping.end(), slot) ==
            mapping.end()) {
          mapping.push_back(slot);
        }
      }
    }
    for (const auto objective :
         {mapping::Objective::kMinDelay, mapping::Objective::kMinPower,
          mapping::Objective::kWeighted}) {
      for (const auto aggregation :
           {Aggregation::kWorstCase, Aggregation::kWeighted}) {
        mapping::MapperConfig config;
        config.objective = objective;
        config.faults.spec.kind = FaultSpec::Kind::kRandom;
        config.faults.spec.num_scenarios = 3;
        config.faults.spec.faults_per_scenario = 1;
        config.faults.spec.seed = 7;
        config.faults.aggregation = aggregation;
        const mapping::Mapper mapper(config);
        const auto reference = mapper.evaluate(app, *topology, mapping);
        const auto ctx = mapper.make_context(app, *topology);
        mapping::EvalScratch scratch;
        const auto cached = ctx.evaluate(mapping, scratch);
        SCOPED_TRACE(std::string(topology->name()) + " / " +
                     mapping::to_string(objective) + " / " +
                     to_string(aggregation));
        expect_fault_identical(reference, cached);
      }
    }
  }
}

/// The first `count` slots of a seeded shuffle of the topology's slots.
std::vector<int> shuffled_mapping(const topo::Topology& topology, int count,
                                  util::Prng& prng) {
  std::vector<int> slots(static_cast<std::size_t>(topology.num_slots()));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<int>(i);
  }
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[prng.next_below(i)]);
  }
  slots.resize(static_cast<std::size_t>(count));
  return slots;
}

TEST(FaultEval, PathTableMatchesMapperEvaluateOnEveryTopologyAndSpec) {
  // The degraded-path table against Mapper::evaluate's per-commodity BFS,
  // on every 16-core library topology plus barbell6. The butterfly injects and
  // ejects at different switches; barbell6's N-1 set cuts its articulation
  // link. Each spec family runs metrics-only and materialized.
  const auto netproc = apps::netproc16();
  const auto triangles = two_triangles();
  auto topologies = topo::standard_library(netproc.num_cores());
  topologies.push_back(barbell6());
  util::Prng prng(2020);
  for (const auto& topology : topologies) {
    const auto& app = topology->num_slots() >= netproc.num_cores()
                          ? netproc
                          : triangles;
    const auto top = mapping::commodities_by_value(app).front();
    for (int draw = 0; draw < 2; ++draw) {
      const auto mapping = shuffled_mapping(*topology, app.num_cores(), prng);
      const int src_slot = mapping[static_cast<std::size_t>(top.src_core)];
      const int dst_slot = mapping[static_cast<std::size_t>(top.dst_core)];
      const graph::NodeId ingress = topology->ingress_switch(src_slot);
      const graph::NodeId egress = topology->egress_switch(dst_slot);

      FaultSpec n1;
      n1.kind = FaultSpec::Kind::kEveryLink;
      FaultSpec random;
      random.kind = FaultSpec::Kind::kRandom;
      random.num_scenarios = 4;
      random.faults_per_scenario = 2;
      random.seed = 11;
      // The top commodity's egress switch dies; then every channel of its
      // ingress switch is cut.
      FaultSpec listed;
      listed.kind = FaultSpec::Kind::kExplicit;
      listed.scenarios.push_back({{}, {egress}});
      listed.scenarios.emplace_back();
      for (const auto& link : physical_links(*topology)) {
        if (link.a == ingress || link.b == ingress) {
          listed.scenarios.back().links.push_back(link);
        }
      }

      for (const auto& spec : {n1, random, listed}) {
        SCOPED_TRACE(topology->name() + " / draw " + std::to_string(draw) +
                     " / " + describe(FaultSet{spec}));
        mapping::MapperConfig table_config;
        table_config.faults.spec = spec;
        const mapping::Mapper mapper(table_config);
        const auto reference = mapper.evaluate(app, *topology, mapping);
        const auto table_ctx = mapper.make_context(app, *topology);
        mapping::EvalScratch table_scratch;
        // Metrics-only first: a materialized evaluation fills the metrics
        // cache, which would answer the metrics-only one.
        const auto table_lean = table_ctx.evaluate(mapping, table_scratch,
                                                   /*materialize=*/false);
        const auto table_full = table_ctx.evaluate(mapping, table_scratch);

        expect_fault_identical(table_full, reference);
        // Metrics-only outcomes carry no link loads.
        auto lean_reference = reference;
        for (auto& outcome : lean_reference.fault_outcomes) {
          outcome.max_link_load_mbps = 0.0;
        }
        expect_fault_identical(table_lean, lean_reference);

        if (spec.kind == FaultSpec::Kind::kExplicit) {
          ASSERT_EQ(table_full.fault_outcomes.size(), 2u);
          EXPECT_FALSE(table_full.fault_outcomes[0].connected);
          if (ingress != egress) {
            EXPECT_FALSE(table_full.fault_outcomes[1].connected);
          }
        }
      }
    }
  }
}

TEST(FaultEval, ScratchMovingBetweenContextsNeverReadsStalePathSums) {
  // One scratch alternates between two contexts whose path tables differ,
  // then follows one of them through a rebind that changes its fault spec
  // and one that clears it. Every evaluation must equal a fresh scratch's
  // on a fresh context (so the metrics cache cannot answer for it).
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  const auto torus = topo::make_torus_for(app.num_cores());
  mapping::MapperConfig n1;
  n1.faults.spec.kind = FaultSpec::Kind::kEveryLink;
  mapping::MapperConfig random = n1;
  random.faults.spec.kind = FaultSpec::Kind::kRandom;
  random.faults.spec.num_scenarios = 4;
  random.faults.spec.faults_per_scenario = 2;
  random.faults.spec.seed = 5;
  mapping::MapperConfig resampled = random;
  resampled.faults.spec.seed = 6;
  mapping::MapperConfig fault_free = n1;
  fault_free.faults = FaultSet{};

  auto mesh_ctx = mapping::Mapper(n1).make_context(app, *mesh);
  const auto torus_ctx = mapping::Mapper(random).make_context(app, *torus);
  mapping::EvalScratch shared;
  util::Prng prng(77);
  int step = 0;
  const auto check = [&](const mapping::EvalContext& ctx) {
    SCOPED_TRACE("step " + std::to_string(step));
    const mapping::Mapper mapper(ctx.config());
    const auto fresh_ctx = mapper.make_context(app, ctx.topology());
    mapping::EvalScratch fresh;
    const auto mapping =
        shuffled_mapping(ctx.topology(), app.num_cores(), prng);
    const bool materialize = step % 3 == 0;
    const auto got = ctx.evaluate(mapping, shared, materialize);
    const auto want = fresh_ctx.evaluate(mapping, fresh, materialize);
    expect_fault_identical(got, want);
    EXPECT_EQ(got.design_power_mw, want.design_power_mw);
    if (step % 6 == 0) {
      const auto searched = mapper.map(ctx, shared);
      const auto fresh_search = mapper.map(app, ctx.topology());
      EXPECT_EQ(searched.core_to_slot, fresh_search.core_to_slot);
      expect_fault_identical(searched.eval, fresh_search.eval);
    }
    ++step;
  };

  for (int i = 0; i < 24; ++i) check(i % 2 == 0 ? mesh_ctx : torus_ctx);
  mesh_ctx.rebind(resampled, mapping::Mapper(resampled).library());
  ASSERT_EQ(mesh_ctx.config().faults, resampled.faults);
  for (int i = 0; i < 6; ++i) check(i % 2 == 0 ? mesh_ctx : torus_ctx);
  mesh_ctx.rebind(fault_free, mapping::Mapper(fault_free).library());
  for (int i = 0; i < 6; ++i) check(i % 2 == 0 ? mesh_ctx : torus_ctx);
}

TEST(FaultEval, EmptyFaultSetLeavesEvaluationUntouched) {
  const auto app = apps::mwd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  std::vector<int> mapping;
  for (int core = 0; core < app.num_cores(); ++core) mapping.push_back(core);

  mapping::MapperConfig config;  // faults default to kNone
  const mapping::Mapper mapper(config);
  const auto eval = mapper.evaluate(app, *mesh, mapping);
  EXPECT_TRUE(eval.fault_outcomes.empty());
  EXPECT_EQ(eval.worst_fault_cost, 0.0);
  EXPECT_EQ(eval.infeasible_fault_scenarios, 0);
}

TEST(FaultExplorer, FaultSetsAreAGridAxis) {
  const auto app = apps::pip();
  const auto library = topo::standard_library(app.num_cores());

  select::ExplorationRequest request;
  request.app = &app;
  request.library = &library;
  FaultSet none;
  FaultSet random;
  random.spec.kind = FaultSpec::Kind::kRandom;
  random.spec.num_scenarios = 2;
  random.spec.faults_per_scenario = 1;
  request.fault_sets = {none, random};
  request.objectives = {mapping::Objective::kMinDelay,
                        mapping::Objective::kMinPower};

  EXPECT_EQ(request.num_points(), 4u);
  const auto points = select::DesignSpaceExplorer::expand(request);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].fault_index, 0);
  EXPECT_EQ(points[2].fault_index, 1);
  EXPECT_TRUE(points[0].config.faults.empty());
  EXPECT_EQ(points[2].config.faults, random);
  EXPECT_EQ(points[0].label().find("/flt-"), std::string::npos);
  EXPECT_NE(points[2].label().find("/flt-rand2x1@1"), std::string::npos);

  select::DesignSpaceExplorer explorer;
  const auto report = explorer.explore(request);
  ASSERT_EQ(report.results.size(), 4u);
  for (const auto& candidate : report.results[0].selection.candidates) {
    EXPECT_TRUE(candidate.result.eval.fault_outcomes.empty());
  }
  for (const auto& candidate : report.results[2].selection.candidates) {
    EXPECT_EQ(candidate.result.eval.fault_outcomes.size(), 2u);
  }

  // Robustness columns surface in both report formats.
  const auto csv = io::exploration_report_csv(report);
  EXPECT_NE(csv.find("faults,"), std::string::npos);
  EXPECT_NE(csv.find("fault_scenarios,worst_fault_cost,fault_disconnected"),
            std::string::npos);
  EXPECT_NE(csv.find(",rand2x1@1,"), std::string::npos);
  EXPECT_NE(csv.find(",none,"), std::string::npos);
  const auto json = io::exploration_report_json(report);
  EXPECT_NE(json.find("\"faults\": \"rand2x1@1\""), std::string::npos);
  EXPECT_NE(json.find("\"worst_fault_cost\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_disconnected\""), std::string::npos);
}

}  // namespace
}  // namespace sunmap::fault
