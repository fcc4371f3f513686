// Regression tests for the incremental mapping-evaluation engine: the
// cached EvalContext::evaluate() path must return Evaluations identical to
// the from-scratch Mapper::evaluate() reference across every routing
// function and topology family, and one context evaluated from several
// threads must answer exactly as a serial run does.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <thread>

#include "apps/apps.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::mapping {
namespace {

std::vector<std::unique_ptr<topo::Topology>> test_topologies(int cores) {
  std::vector<std::unique_ptr<topo::Topology>> topologies;
  topologies.push_back(topo::make_mesh_for(cores));
  topologies.push_back(topo::make_torus_for(cores));
  topologies.push_back(topo::make_butterfly_for(cores));
  return topologies;
}

/// A valid but non-trivial fixed mapping: core i on slot (i * 5 + 3) mod
/// num_slots, made injective by construction when gcd(5, num_slots) == 1;
/// falls back to a rotation otherwise.
std::vector<int> scrambled_mapping(int num_cores, int num_slots) {
  std::vector<int> mapping;
  std::vector<bool> used(static_cast<std::size_t>(num_slots), false);
  for (int core = 0; core < num_cores; ++core) {
    int slot = (core * 5 + 3) % num_slots;
    while (used[static_cast<std::size_t>(slot)]) slot = (slot + 1) % num_slots;
    used[static_cast<std::size_t>(slot)] = true;
    mapping.push_back(slot);
  }
  return mapping;
}

void expect_identical(const Evaluation& reference, const Evaluation& cached) {
  EXPECT_EQ(reference.bandwidth_feasible, cached.bandwidth_feasible);
  EXPECT_EQ(reference.area_feasible, cached.area_feasible);
  // The cached path mirrors the reference's arithmetic operation for
  // operation, so every metric must match exactly, not just approximately.
  EXPECT_EQ(reference.max_link_load_mbps, cached.max_link_load_mbps);
  EXPECT_EQ(reference.avg_switch_hops, cached.avg_switch_hops);
  EXPECT_EQ(reference.avg_path_latency_ns, cached.avg_path_latency_ns);
  EXPECT_EQ(reference.design_area_mm2, cached.design_area_mm2);
  EXPECT_EQ(reference.design_power_mw, cached.design_power_mw);
  EXPECT_EQ(reference.dynamic_power_mw, cached.dynamic_power_mw);
  EXPECT_EQ(reference.static_power_mw, cached.static_power_mw);
  EXPECT_EQ(reference.switch_area_mm2, cached.switch_area_mm2);
  EXPECT_EQ(reference.cost, cached.cost);

  ASSERT_EQ(reference.routes.size(), cached.routes.size());
  for (std::size_t k = 0; k < reference.routes.size(); ++k) {
    const auto& ref_routes = reference.routes[k];
    const auto& new_routes = cached.routes[k];
    ASSERT_EQ(ref_routes.paths.size(), new_routes.paths.size());
    for (std::size_t p = 0; p < ref_routes.paths.size(); ++p) {
      EXPECT_EQ(ref_routes.paths[p].path.nodes, new_routes.paths[p].path.nodes);
      EXPECT_EQ(ref_routes.paths[p].path.edges, new_routes.paths[p].path.edges);
      EXPECT_EQ(ref_routes.paths[p].fraction, new_routes.paths[p].fraction);
    }
  }
  EXPECT_EQ(reference.floorplan.area_mm2(), cached.floorplan.area_mm2());
}

TEST(EvalContext, MatchesFromScratchEvaluateEverywhere) {
  const auto app = apps::vopd();
  for (const auto& topology : test_topologies(app.num_cores())) {
    const auto mapping =
        scrambled_mapping(app.num_cores(), topology->num_slots());
    for (route::RoutingKind kind : route::kAllRoutingKinds) {
      MapperConfig config;
      config.routing = kind;
      Mapper mapper(config);
      const auto reference = mapper.evaluate(app, *topology, mapping);
      const auto ctx = mapper.make_context(app, *topology);
      EvalScratch scratch;
      const auto cached = ctx.evaluate(mapping, scratch);
      SCOPED_TRACE(std::string(topology->name()) + " / " + to_string(kind));
      expect_identical(reference, cached);
    }
  }
}

TEST(EvalContext, ScratchReuseDoesNotLeakStateBetweenMappings) {
  const auto app = apps::mwd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.routing = route::RoutingKind::kMinPath;
  Mapper mapper(config);
  const auto ctx = mapper.make_context(app, *mesh);
  EvalScratch scratch;

  std::vector<int> identity(static_cast<std::size_t>(app.num_cores()));
  std::iota(identity.begin(), identity.end(), 0);
  const auto scrambled =
      scrambled_mapping(app.num_cores(), mesh->num_slots());

  // Evaluate A, then B, then A again through one scratch: the third result
  // must match the first bit for bit.
  const auto first = ctx.evaluate(identity, scratch);
  (void)ctx.evaluate(scrambled, scratch);
  const auto again = ctx.evaluate(identity, scratch);
  expect_identical(first, again);
}

TEST(EvalContext, RejectsMalformedMappings) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  const Mapper mapper;
  const auto ctx = mapper.make_context(app, *mesh);
  EvalScratch scratch;

  std::vector<int> short_mapping(static_cast<std::size_t>(app.num_cores() - 1),
                                 0);
  EXPECT_THROW((void)ctx.evaluate(short_mapping, scratch),
               std::invalid_argument);

  std::vector<int> out_of_range(static_cast<std::size_t>(app.num_cores()), 0);
  std::iota(out_of_range.begin(), out_of_range.end(), 0);
  out_of_range.back() = mesh->num_slots();
  EXPECT_THROW((void)ctx.evaluate(out_of_range, scratch),
               std::invalid_argument);

  std::vector<int> not_injective(static_cast<std::size_t>(app.num_cores()), 0);
  EXPECT_THROW((void)ctx.evaluate(not_injective, scratch),
               std::invalid_argument);
}

TEST(EvalContext, ConcurrentEvaluationsMatchSerial) {
  // evaluate() is thread-safe given one scratch per thread: four threads
  // share one cold context (both caches, and under MP/SA the routing
  // sessions of their scratches), each walking the same mappings from a
  // different offset, light and materialized. Every result must equal a
  // serial run's on a context of its own.
  constexpr int kThreads = 4;
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  util::Prng prng(404);
  std::vector<std::vector<int>> mappings;
  std::vector<int> slots(16);
  std::iota(slots.begin(), slots.end(), 0);
  for (int m = 0; m < 24; ++m) {
    for (std::size_t i = slots.size(); i > 1; --i) {
      std::swap(slots[i - 1], slots[prng.next_below(i)]);
    }
    mappings.emplace_back(slots.begin(), slots.begin() + app.num_cores());
  }
  const std::size_t n = mappings.size();

  for (route::RoutingKind kind :
       {route::RoutingKind::kMinPath, route::RoutingKind::kSplitAll}) {
    SCOPED_TRACE(route::to_string(kind));
    MapperConfig config;
    config.routing = kind;
    const Mapper mapper(config);
    // Index 2 * m + materialized.
    std::vector<Evaluation> serial;
    {
      const auto ctx = mapper.make_context(app, *mesh);
      EvalScratch scratch;
      for (const auto& mapping : mappings) {
        serial.push_back(ctx.evaluate(mapping, scratch, false));
        serial.push_back(ctx.evaluate(mapping, scratch, true));
      }
    }

    const auto ctx = mapper.make_context(app, *mesh);
    std::vector<std::vector<Evaluation>> got(
        kThreads, std::vector<Evaluation>(2 * n));
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        try {
          EvalScratch scratch;
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t m =
                (i + static_cast<std::size_t>(t) * n / kThreads) % n;
            // Half the threads materialize first, so a mapping one thread
            // evaluates light another materializes at about the same time.
            for (int pass = 0; pass < 2; ++pass) {
              const bool materialize = (pass + t) % 2 == 1;
              got[static_cast<std::size_t>(t)][2 * m + (materialize ? 1 : 0)] =
                  ctx.evaluate(mappings[m], scratch, materialize);
            }
          }
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(t)] = e.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(errors[static_cast<std::size_t>(t)], "") << "thread " << t;
      for (std::size_t i = 0; i < 2 * n; ++i) {
        SCOPED_TRACE("thread " + std::to_string(t) + " mapping " +
                     std::to_string(i / 2) + (i % 2 ? " materialized" : ""));
        expect_identical(serial[i], got[static_cast<std::size_t>(t)][i]);
      }
    }
  }
}

TEST(EvalContext, HopBoundNeverExceedsEvaluatedCost) {
  const auto app = apps::mpeg4();
  for (const auto& topology : test_topologies(app.num_cores())) {
    const auto mapping =
        scrambled_mapping(app.num_cores(), topology->num_slots());
    for (route::RoutingKind kind : route::kAllRoutingKinds) {
      MapperConfig config;
      config.routing = kind;
      config.objective = Objective::kMinDelay;
      Mapper mapper(config);
      const auto ctx = mapper.make_context(app, *topology);
      EvalScratch scratch;
      const auto eval = ctx.evaluate(mapping, scratch);
      SCOPED_TRACE(std::string(topology->name()) + " / " + to_string(kind));
      EXPECT_LE(ctx.hop_cost_lower_bound(mapping), eval.cost + 1e-12);
    }
  }
}

TEST(EvalContext, PruningDoesNotChangeSearchResult) {
  // collect_explored disables bound pruning, so the same search with and
  // without it must walk the same trajectory and land on the same mapping,
  // at the same cost, after considering the same number of candidates.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig pruned;
  pruned.routing = route::RoutingKind::kMinPath;
  pruned.objective = Objective::kMinDelay;
  MapperConfig unpruned = pruned;
  unpruned.collect_explored = true;

  const auto fast = Mapper(pruned).map(app, *mesh);
  const auto reference = Mapper(unpruned).map(app, *mesh);
  EXPECT_EQ(fast.core_to_slot, reference.core_to_slot);
  EXPECT_EQ(fast.eval.cost, reference.eval.cost);
  EXPECT_EQ(fast.evaluated_mappings, reference.evaluated_mappings);
  EXPECT_GT(fast.pruned_mappings, 0);
  EXPECT_EQ(reference.pruned_mappings, 0);
}

TEST(Rebind, MatchesFreshContextAcrossAllRoutingKinds) {
  // One context re-bound through every routing kind (and back) must map
  // bit-identically to a context freshly built for each configuration —
  // the contract the batched design-space explorer rests on.
  const auto app = apps::vopd();
  for (const auto& topology : test_topologies(app.num_cores())) {
    MapperConfig initial;
    initial.routing = route::RoutingKind::kMinPath;
    Mapper first(initial);
    auto ctx = first.make_context(app, *topology);

    std::vector<MapperConfig> chain;
    for (route::RoutingKind kind : route::kAllRoutingKinds) {
      MapperConfig config;
      config.routing = kind;
      chain.push_back(config);
    }
    // Revisit the first two kinds so the kept static-route tables and the
    // quadrant table are reused after other kinds were bound in between.
    chain.push_back(chain[0]);
    chain.push_back(chain[1]);

    EvalScratch scratch;  // reused across rebinds: sessions rebuild on demand
    for (const auto& config : chain) {
      Mapper mapper(config);
      ctx.rebind(config, mapper.library());
      const auto rebound = mapper.map(ctx, scratch);
      const auto fresh = mapper.map(app, *topology);
      SCOPED_TRACE(std::string(topology->name()) + " / " +
                   route::to_string(config.routing));
      EXPECT_EQ(rebound.core_to_slot, fresh.core_to_slot);
      EXPECT_EQ(rebound.evaluated_mappings, fresh.evaluated_mappings);
      EXPECT_EQ(rebound.pruned_mappings, fresh.pruned_mappings);
      expect_identical(fresh.eval, rebound.eval);
    }
  }
}

TEST(Rebind, ObjectiveBandwidthAndConstraintChangesMatchFreshContexts) {
  const auto app = apps::mpeg4();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig base;
  base.routing = route::RoutingKind::kSplitAll;
  Mapper first(base);
  auto ctx = first.make_context(app, *mesh);

  std::vector<MapperConfig> chain;
  for (Objective objective : {Objective::kMinArea, Objective::kWeighted,
                              Objective::kMinDelay}) {
    MapperConfig config = base;
    config.objective = objective;
    chain.push_back(config);
  }
  {
    MapperConfig config = base;
    config.link_bandwidth_mbps = 1000.0;  // affects split-all routing
    chain.push_back(config);
    config.max_area_mm2 = 60.0;
    chain.push_back(config);
  }

  EvalScratch scratch;
  for (const auto& config : chain) {
    Mapper mapper(config);
    ctx.rebind(config, mapper.library());
    const auto rebound = mapper.map(ctx, scratch);
    const auto fresh = mapper.map(app, *mesh);
    SCOPED_TRACE(std::string(to_string(config.objective)) + " / bw=" +
                 std::to_string(config.link_bandwidth_mbps));
    EXPECT_EQ(rebound.core_to_slot, fresh.core_to_slot);
    expect_identical(fresh.eval, rebound.eval);
  }
}

TEST(Rebind, TechnologyChangeReresolvesSwitchTables) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  Mapper first;
  auto ctx = first.make_context(app, *mesh);

  MapperConfig scaled;
  scaled.tech.energy_fixed_pj *= 2.0;
  scaled.tech.static_fixed_mw *= 1.5;
  scaled.tech.area_fixed *= 1.2;
  Mapper mapper(scaled);
  ctx.rebind(scaled, mapper.library());
  EvalScratch scratch;
  const auto rebound = mapper.map(ctx, scratch);
  const auto fresh = mapper.map(app, *mesh);
  EXPECT_EQ(rebound.core_to_slot, fresh.core_to_slot);
  expect_identical(fresh.eval, rebound.eval);

  // And back: the original technology point must be restored exactly.
  MapperConfig original;
  Mapper back(original);
  ctx.rebind(original, back.library());
  const auto restored = back.map(ctx, scratch);
  const auto reference = back.map(app, *mesh);
  EXPECT_EQ(restored.core_to_slot, reference.core_to_slot);
  expect_identical(reference.eval, restored.eval);
}

TEST(MapResult, SearchOutcomeMatchesFromScratchReEvaluation) {
  // Whatever mapping the cached search returns, evaluating it from scratch
  // must reproduce the reported Evaluation — the search can never report a
  // cost its mapping does not actually achieve.
  const auto app = apps::dsp_filter();
  for (const auto& topology : test_topologies(app.num_cores())) {
    for (route::RoutingKind kind : route::kAllRoutingKinds) {
      MapperConfig config;
      config.routing = kind;
      Mapper mapper(config);
      const auto result = mapper.map(app, *topology);
      const auto reference =
          mapper.evaluate(app, *topology, result.core_to_slot);
      SCOPED_TRACE(std::string(topology->name()) + " / " + to_string(kind));
      expect_identical(reference, result.eval);
    }
  }
}

}  // namespace
}  // namespace sunmap::mapping
