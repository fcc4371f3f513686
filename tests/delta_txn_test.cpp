// Transactional delta-evaluation tests: a DeltaTxn speculation
// (begin_swap -> evaluate/prunable -> commit | rollback) must leave the
// mapping arrays and the scratch's sessions where every later evaluation
// matches Mapper::evaluate, the from-scratch oracle, over randomized
// accept/reject sequences on grid- and columns-mode topologies under both
// floorplan engines — a floorplan session left on a rejected candidate
// must be moved back by the next miss's delta; and the search strategies
// ported onto the protocol must keep their pinned winners.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/apps.h"
#include "mapping/delta_txn.h"
#include "mapping/eval_context.h"
#include "mapping/mapper.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::mapping {
namespace {

void expect_same_metrics(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.avg_switch_hops, b.avg_switch_hops);
  EXPECT_EQ(a.design_area_mm2, b.design_area_mm2);
  EXPECT_EQ(a.design_power_mw, b.design_power_mw);
  EXPECT_EQ(a.max_link_load_mbps, b.max_link_load_mbps);
  EXPECT_EQ(a.bandwidth_feasible, b.bandwidth_feasible);
  EXPECT_EQ(a.area_feasible, b.area_feasible);
}

std::vector<int> inverse_of(const std::vector<int>& core_to_slot,
                            int num_slots) {
  std::vector<int> slot_to_core(static_cast<std::size_t>(num_slots), -1);
  for (std::size_t c = 0; c < core_to_slot.size(); ++c) {
    slot_to_core[static_cast<std::size_t>(core_to_slot[c])] =
        static_cast<int>(c);
  }
  return slot_to_core;
}

/// Randomized accept/reject walk: every evaluation through the transaction
/// is checked bitwise against Mapper::evaluate, including the one right
/// after each rollback. A candidate after a rollback reaches the floorplan
/// session from the rejected candidate it still holds, which is where a
/// wrong delta (a session key out of step with the session) would show.
void run_txn_walk(const CoreGraph& app, const topo::Topology& topology,
                  MapperConfig config, int steps, std::uint64_t seed) {
  Mapper mapper(config);
  const EvalContext ctx(app, topology, config, mapper.library());

  std::vector<int> mapping;
  {
    // Any valid initial mapping works; take the identity-ish one.
    mapping.resize(static_cast<std::size_t>(app.num_cores()));
    for (int c = 0; c < app.num_cores(); ++c) {
      mapping[static_cast<std::size_t>(c)] = c;
    }
  }
  auto inverse = inverse_of(mapping, topology.num_slots());

  EvalScratch scratch;
  DeltaTxn txn(ctx, scratch, mapping, inverse);
  util::Prng prng(seed);
  for (int step = 0; step < steps; ++step) {
    const int a = prng.next_int(0, topology.num_slots() - 1);
    int b = prng.next_int(0, topology.num_slots() - 2);
    if (b >= a) ++b;
    if (inverse[static_cast<std::size_t>(a)] < 0 &&
        inverse[static_cast<std::size_t>(b)] < 0) {
      continue;
    }
    txn.begin_swap(a, b);
    const auto eval = txn.evaluate(/*materialize=*/false);
    {
      SCOPED_TRACE(topology.name() + " step " + std::to_string(step));
      expect_same_metrics(eval, mapper.evaluate(app, topology, mapping));
    }
    if (prng.chance(0.5)) {
      txn.commit();
    } else {
      const auto speculative = mapping;
      txn.rollback();
      EXPECT_NE(mapping, speculative);
      EXPECT_EQ(inverse, inverse_of(mapping, topology.num_slots()));
      // The rolled-back state must evaluate bit-identically too. The
      // metrics cache usually answers for the incumbent; the next step's
      // candidate is what reads the floorplan session the reject left on
      // the rejected swap.
      const auto back = txn.evaluate(/*materialize=*/false);
      SCOPED_TRACE(topology.name() + " rollback " + std::to_string(step));
      expect_same_metrics(back, mapper.evaluate(app, topology, mapping));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DeltaTxn, RandomWalkMatchesFromScratchOnMesh) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);  // 12 cores, 4 empty slots
  run_txn_walk(app, *mesh, MapperConfig{}, 60, 51);
}

TEST(DeltaTxn, RandomWalkMatchesFromScratchOnTorus) {
  const auto app = apps::vopd();
  const auto torus = topo::make_torus_for(app.num_cores());
  run_txn_walk(app, *torus, MapperConfig{}, 60, 52);
}

TEST(DeltaTxn, RandomWalkMatchesFromScratchOnButterfly) {
  const auto app = apps::vopd();
  const auto butterfly = topo::make_butterfly_for(app.num_cores());
  run_txn_walk(app, *butterfly, MapperConfig{}, 60, 53);
}

TEST(DeltaTxn, RandomWalkMatchesUnderSimplexEngine) {
  const auto app = apps::pip();  // 8 cores: the LP stays small
  const auto mesh = topo::make_mesh_for(app.num_cores());
  MapperConfig config;
  config.floorplan.engine = fplan::Floorplanner::Engine::kSimplexLp;
  run_txn_walk(app, *mesh, config, 16, 54);
}

TEST(DeltaTxn, RandomWalkMatchesUnderMinPowerObjective) {
  // prunable() + evaluate() inside one speculation.
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.objective = Objective::kMinPower;
  run_txn_walk(app, *mesh, config, 60, 55);
}

TEST(DeltaTxn, ProtocolMisuseThrows) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  Mapper mapper{MapperConfig{}};
  const EvalContext ctx(app, *mesh, MapperConfig{}, mapper.library());
  std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    mapping[static_cast<std::size_t>(c)] = c;
  }
  auto inverse = inverse_of(mapping, mesh->num_slots());
  EvalScratch scratch;
  DeltaTxn txn(ctx, scratch, mapping, inverse);
  EXPECT_THROW(txn.commit(), std::logic_error);
  EXPECT_THROW(txn.rollback(), std::logic_error);
  txn.begin_swap(0, 1);
  EXPECT_THROW(txn.begin_swap(1, 2), std::logic_error);
  txn.rollback();
  // A second transaction on a scratch already carrying a speculation is
  // rejected up front.
  txn.begin_swap(0, 1);
  EXPECT_THROW((DeltaTxn{ctx, scratch, mapping, inverse}), std::logic_error);
  txn.commit();
}

TEST(DeltaTxn, DestructionRollsBackOpenSpeculation) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(app.num_cores());
  Mapper mapper{MapperConfig{}};
  const EvalContext ctx(app, *mesh, MapperConfig{}, mapper.library());
  std::vector<int> mapping(static_cast<std::size_t>(app.num_cores()));
  for (int c = 0; c < app.num_cores(); ++c) {
    mapping[static_cast<std::size_t>(c)] = c;
  }
  auto inverse = inverse_of(mapping, mesh->num_slots());
  const auto original = mapping;
  EvalScratch scratch;
  {
    DeltaTxn txn(ctx, scratch, mapping, inverse);
    txn.begin_swap(0, 1);
    (void)txn.evaluate();
    EXPECT_NE(mapping, original);
  }
  EXPECT_EQ(mapping, original);
  EXPECT_EQ(inverse, inverse_of(mapping, mesh->num_slots()));
  EXPECT_EQ(scratch.txn_depth, 0);
}

/// The full search stack (greedy / annealing / restart annealing) on VOPD's
/// 16-slot mesh keeps its pinned winner — the mapping, cost and counts that
/// a from-scratch floorplan per cache miss also produces — and the winner's
/// evaluation matches Mapper::evaluate.
void expect_search_pinned(SearchKind kind, int evaluated, int pruned) {
  const auto app = apps::vopd();
  const auto mesh = topo::make_mesh_for(16);
  MapperConfig config;
  config.search = kind;
  config.annealing_iterations = 400;
  const Mapper mapper(config);
  const MappingResult result = mapper.map(app, *mesh);
  EXPECT_EQ(result.core_to_slot,
            (std::vector<int>{7, 6, 10, 9, 13, 8, 4, 5, 0, 2, 1, 3}));
  EXPECT_EQ(result.eval.cost, 2.09401955146636);
  EXPECT_EQ(result.eval.design_area_mm2, 88.226981132004042);
  EXPECT_EQ(result.eval.design_power_mw, 474.34626093940955);
  EXPECT_EQ(result.evaluated_mappings, evaluated);
  EXPECT_EQ(result.pruned_mappings, pruned);
  expect_same_metrics(result.eval,
                      mapper.evaluate(app, *mesh, result.core_to_slot));
}

TEST(TransactionalSearch, GreedyKeepsPinnedWinner) {
  expect_search_pinned(SearchKind::kGreedySwaps, 115, 114);
}

TEST(TransactionalSearch, AnnealingKeepsPinnedWinner) {
  expect_search_pinned(SearchKind::kAnnealing, 372, 0);
}

TEST(TransactionalSearch, RestartAnnealingKeepsPinnedWinner) {
  expect_search_pinned(SearchKind::kRestartAnnealing, 377, 0);
}

TEST(TransactionalSearch, ScratchSurvivesTopologyChangeAcrossContexts) {
  // The session slot-count guard: one scratch driven across contexts whose
  // topologies disagree on slot count must transparently rebuild its
  // session instead of feeding a stale one.
  const auto app = apps::vopd();
  const auto mesh16 = topo::make_mesh_for(16);
  const auto butterfly = topo::make_butterfly_for(app.num_cores());
  MapperConfig config;
  const Mapper mapper(config);
  EvalScratch scratch;
  const EvalContext ctx_mesh = mapper.make_context(app, *mesh16);
  const auto on_mesh = mapper.map(ctx_mesh, scratch);
  const EvalContext ctx_bfly = mapper.make_context(app, *butterfly);
  const auto on_bfly = mapper.map(ctx_bfly, scratch);
  const auto fresh = mapper.map(app, *butterfly);
  EXPECT_EQ(on_bfly.core_to_slot, fresh.core_to_slot);
  EXPECT_EQ(on_bfly.eval.cost, fresh.eval.cost);
  const auto mesh_again = mapper.map(ctx_mesh, scratch);
  EXPECT_EQ(mesh_again.core_to_slot, on_mesh.core_to_slot);
  EXPECT_EQ(mesh_again.eval.cost, on_mesh.eval.cost);
}

}  // namespace
}  // namespace sunmap::mapping
