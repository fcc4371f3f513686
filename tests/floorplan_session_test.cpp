#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "fplan/session.h"
#include "topo/library.h"
#include "util/prng.h"

namespace sunmap::fplan {
namespace {

using topo::Topology;

/// Bitwise floorplan equality: chip dimensions, block order, and every
/// block field must match to the last bit — the session's contract with
/// Floorplanner::place.
void expect_bit_identical(const Floorplan& incremental,
                          const Floorplan& reference,
                          const std::string& where) {
  EXPECT_EQ(incremental.width_mm(), reference.width_mm()) << where;
  EXPECT_EQ(incremental.height_mm(), reference.height_mm()) << where;
  EXPECT_EQ(incremental.area_mm2(), reference.area_mm2()) << where;
  ASSERT_EQ(incremental.blocks().size(), reference.blocks().size()) << where;
  for (std::size_t i = 0; i < reference.blocks().size(); ++i) {
    const auto& a = incremental.blocks()[i];
    const auto& b = reference.blocks()[i];
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << where;
    EXPECT_EQ(a.index, b.index) << where;
    EXPECT_EQ(a.x, b.x) << where << " block " << i;
    EXPECT_EQ(a.y, b.y) << where << " block " << i;
    EXPECT_EQ(a.w, b.w) << where << " block " << i;
    EXPECT_EQ(a.h, b.h) << where << " block " << i;
  }
}

/// A pool of distinct shapes (several soft classes with different areas and
/// aspect ranges plus one hard block), so swaps genuinely change the
/// assignment instead of permuting equal shapes.
std::vector<BlockShape> shape_pool() {
  std::vector<BlockShape> pool;
  pool.push_back(BlockShape::soft_block(4.0));
  pool.push_back(BlockShape::soft_block(9.0));
  auto narrow = BlockShape::soft_block(2.25);
  narrow.min_aspect = 0.5;
  narrow.max_aspect = 2.0;
  pool.push_back(narrow);
  pool.push_back(BlockShape::soft_block(1.0));
  pool.push_back(BlockShape::hard_block(1.5, 3.0));
  return pool;
}

struct Workload {
  std::unique_ptr<Topology> topology;
  std::vector<std::optional<BlockShape>> cores;  // per slot, some empty
  std::vector<BlockShape> switches;
};

Workload make_workload(std::unique_ptr<Topology> topology, int used_slots,
                       std::uint64_t seed) {
  Workload w;
  w.topology = std::move(topology);
  const auto pool = shape_pool();
  util::Prng prng(seed);
  w.cores.resize(static_cast<std::size_t>(w.topology->num_slots()));
  for (int s = 0; s < used_slots && s < w.topology->num_slots(); ++s) {
    w.cores[static_cast<std::size_t>(s)] =
        pool[prng.next_below(pool.size())];
  }
  w.switches.reserve(static_cast<std::size_t>(w.topology->num_switches()));
  for (graph::NodeId sw = 0; sw < w.topology->num_switches(); ++sw) {
    auto shape = BlockShape::soft_block(0.2 + 0.05 * (sw % 3));
    shape.min_aspect = 0.5;
    shape.max_aspect = 2.0;
    w.switches.push_back(shape);
  }
  return w;
}

/// Drives `steps` random pairwise slot swaps (core<->core and core<->empty)
/// through one session and asserts bit-identity with a from-scratch place
/// after every step.
void run_swap_sequence(Workload w, Floorplanner::Options options, int steps,
                       std::uint64_t seed) {
  const auto placement = w.topology->relative_placement();
  const Floorplanner reference(options);
  FloorplanSession session(options, placement, w.cores, w.switches);

  expect_bit_identical(session.solve(),
                       reference.place(placement, w.cores, w.switches),
                       w.topology->name() + " initial");

  util::Prng prng(seed);
  const int num_slots = w.topology->num_slots();
  std::vector<SlotShapeUpdate> updates;
  for (int step = 0; step < steps; ++step) {
    const int a = prng.next_int(0, num_slots - 1);
    int b = prng.next_int(0, num_slots - 2);
    if (b >= a) ++b;
    std::swap(w.cores[static_cast<std::size_t>(a)],
              w.cores[static_cast<std::size_t>(b)]);
    updates.clear();
    updates.push_back({a, w.cores[static_cast<std::size_t>(a)]});
    updates.push_back({b, w.cores[static_cast<std::size_t>(b)]});
    session.update_shapes(updates);
    expect_bit_identical(session.solve(),
                         reference.place(placement, w.cores, w.switches),
                         w.topology->name() + " step " +
                             std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FloorplanSession, LongSwapSequenceMatchesFromScratchOnMesh) {
  // 12 cores on 16 slots: the sequence moves cores into empty slots too.
  run_swap_sequence(make_workload(topo::make_mesh_for(16), 12, 11),
                    Floorplanner::Options{}, 200, 21);
}

TEST(FloorplanSession, LongSwapSequenceMatchesFromScratchOnTorus) {
  run_swap_sequence(make_workload(topo::make_torus_for(16), 16, 12),
                    Floorplanner::Options{}, 200, 22);
}

TEST(FloorplanSession, LongSwapSequenceMatchesFromScratchOnButterfly) {
  // Columns-mode placement (the butterfly's flanked layout).
  run_swap_sequence(make_workload(topo::make_butterfly_for(16), 14, 13),
                    Floorplanner::Options{}, 200, 23);
}

TEST(FloorplanSession, SimplexEngineMatchesFromScratch) {
  Floorplanner::Options options;
  options.engine = Floorplanner::Engine::kSimplexLp;
  run_swap_sequence(make_workload(topo::make_mesh_for(8), 6, 14), options, 25,
                    24);
  run_swap_sequence(make_workload(topo::make_butterfly_for(8), 6, 14), options,
                    25, 24);
}

TEST(FloorplanSession, NoSizingPassesMatchesFromScratch) {
  Floorplanner::Options options;
  options.sizing_passes = 0;
  run_swap_sequence(make_workload(topo::make_mesh_for(16), 12, 15),
                    Floorplanner::Options{options}, 120, 25);
}

TEST(FloorplanSession, WholeAssignmentDeltaMatchesFromScratch) {
  auto w = make_workload(topo::make_mesh_for(16), 12, 16);
  const auto placement = w.topology->relative_placement();
  const Floorplanner reference;
  FloorplanSession session({}, placement, w.cores, w.switches);
  (void)session.solve();

  // Replace the entire assignment with fresh shapes, filling the empty
  // slots too: one delta that touches every slot.
  std::vector<SlotShapeUpdate> updates;
  for (int s = 0; s < w.topology->num_slots(); ++s) {
    w.cores[static_cast<std::size_t>(s)] =
        BlockShape::soft_block(1.0 + 0.25 * s);
    updates.push_back({s, w.cores[static_cast<std::size_t>(s)]});
  }
  session.update_shapes(updates);
  expect_bit_identical(session.solve(),
                       reference.place(placement, w.cores, w.switches),
                       "shuffled");
}

TEST(FloorplanSession, NoOpUpdatesAreCached) {
  auto w = make_workload(topo::make_mesh_for(16), 12, 17);
  FloorplanSession session({}, w.topology->relative_placement(), w.cores,
                           w.switches);
  (void)session.solve();
  const auto solves = session.stats().solves;

  // Re-sending the current shapes must not trigger a re-solve.
  std::vector<SlotShapeUpdate> updates;
  for (int s = 0; s < w.topology->num_slots(); ++s) {
    updates.push_back({s, w.cores[static_cast<std::size_t>(s)]});
  }
  session.update_shapes(updates);
  (void)session.solve();
  EXPECT_EQ(session.stats().solves, solves);
  EXPECT_GT(session.stats().cached_solves, 0u);
}

// ---- Accept/reject traffic, as the mapping search's DeltaTxn drives it. ----

/// The delta EvalContext::floorplan_for_mapping sends on a cache miss:
/// every slot whose shape differs between what the session holds and
/// `want`. `held` becomes `want`.
void diff_updates(std::vector<std::optional<BlockShape>>& held,
                  const std::vector<std::optional<BlockShape>>& want,
                  std::vector<SlotShapeUpdate>& updates) {
  updates.clear();
  for (std::size_t s = 0; s < want.size(); ++s) {
    if (held[s] == want[s]) continue;
    updates.push_back({static_cast<int>(s), want[s]});
    held[s] = want[s];
  }
}

/// Drives a randomized accept/reject sequence through one session the way
/// the evaluation context does: each candidate is the committed baseline
/// with one pairwise swap; a candidate that reaches the floorplan sends the
/// diff against whatever the session holds (<= 4 slots: the swap plus a
/// rejected predecessor's two) and solves; the search then accepts it into
/// the baseline or rejects it, leaving the session on the candidate. After
/// every solve the result must equal the from-scratch place of the
/// assignment solved, including re-solves of the baseline after a reject.
void run_accept_reject_sequence(Workload w, Floorplanner::Options options,
                                int steps, std::uint64_t seed) {
  const auto placement = w.topology->relative_placement();
  const Floorplanner reference(options);
  FloorplanSession session(options, placement, w.cores, w.switches);
  (void)session.solve();

  util::Prng prng(seed);
  const int num_slots = w.topology->num_slots();
  std::vector<SlotShapeUpdate> updates;
  auto held = w.cores;  // the assignment the session holds
  for (int step = 0; step < steps; ++step) {
    const int a = prng.next_int(0, num_slots - 1);
    int b = prng.next_int(0, num_slots - 2);
    if (b >= a) ++b;
    auto candidate = w.cores;
    std::swap(candidate[static_cast<std::size_t>(a)],
              candidate[static_cast<std::size_t>(b)]);

    // Usually the candidate reaches the floorplan; sometimes a bound
    // prunes it first, the session never sees it, and it is rejected.
    const bool reaches_floorplan = prng.chance(0.8);
    if (reaches_floorplan) {
      diff_updates(held, candidate, updates);
      EXPECT_LE(updates.size(), 4u);
      session.update_shapes(updates);
      expect_bit_identical(
          session.solve(), reference.place(placement, candidate, w.switches),
          w.topology->name() + " candidate " + std::to_string(step));
    }

    if (prng.chance(0.5) && reaches_floorplan) {
      w.cores = candidate;
    } else if (prng.chance(0.5)) {
      // Re-solving the baseline after a reject undoes the candidate.
      diff_updates(held, w.cores, updates);
      session.update_shapes(updates);
      expect_bit_identical(session.solve(),
                           reference.place(placement, w.cores, w.switches),
                           w.topology->name() + " rejected " +
                               std::to_string(step));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FloorplanSessionTxn, AcceptRejectSequenceMatchesFromScratchOnMesh) {
  run_accept_reject_sequence(make_workload(topo::make_mesh_for(16), 12, 31),
                             Floorplanner::Options{}, 120, 41);
}

TEST(FloorplanSessionTxn, AcceptRejectSequenceMatchesFromScratchOnTorus) {
  run_accept_reject_sequence(make_workload(topo::make_torus_for(16), 16, 32),
                             Floorplanner::Options{}, 120, 42);
}

TEST(FloorplanSessionTxn, AcceptRejectSequenceMatchesFromScratchOnButterfly) {
  run_accept_reject_sequence(
      make_workload(topo::make_butterfly_for(16), 14, 33),
      Floorplanner::Options{}, 120, 43);
}

TEST(FloorplanSessionTxn, AcceptRejectSequenceMatchesUnderSimplexEngine) {
  Floorplanner::Options options;
  options.engine = Floorplanner::Engine::kSimplexLp;
  run_accept_reject_sequence(make_workload(topo::make_mesh_for(8), 6, 34),
                             options, 20, 44);
  run_accept_reject_sequence(make_workload(topo::make_butterfly_for(8), 6, 34),
                             options, 20, 44);
}

TEST(FloorplanSessionTxn, WholeAssignmentForwardAndBackMatchFromScratch) {
  auto w = make_workload(topo::make_mesh_for(16), 12, 35);
  const auto placement = w.topology->relative_placement();
  const Floorplanner reference;
  FloorplanSession session({}, placement, w.cores, w.switches);
  (void)session.solve();

  // A delta that replaces every slot's shape, then the delta that puts the
  // original assignment back: both solves must match from scratch.
  auto other = w.cores;
  std::vector<SlotShapeUpdate> forward;
  std::vector<SlotShapeUpdate> back;
  for (int s = 0; s < w.topology->num_slots(); ++s) {
    other[static_cast<std::size_t>(s)] = BlockShape::soft_block(2.0 + 0.5 * s);
    forward.push_back({s, other[static_cast<std::size_t>(s)]});
    back.push_back({s, w.cores[static_cast<std::size_t>(s)]});
  }
  session.update_shapes(forward);
  expect_bit_identical(session.solve(),
                       reference.place(placement, other, w.switches),
                       "whole-assignment forward");
  session.update_shapes(back);
  expect_bit_identical(session.solve(),
                       reference.place(placement, w.cores, w.switches),
                       "whole-assignment back");

  // And two-slot deltas keep matching afterwards.
  std::swap(w.cores[0], w.cores[5]);
  forward.clear();
  forward.push_back({0, w.cores[0]});
  forward.push_back({5, w.cores[5]});
  session.update_shapes(forward);
  expect_bit_identical(session.solve(),
                       reference.place(placement, w.cores, w.switches),
                       "post-round-trip delta");
}

TEST(FloorplanSession, UpdatesForUnplacedSlotsAreIgnored) {
  auto w = make_workload(topo::make_mesh_for(16), 12, 18);
  FloorplanSession session({}, w.topology->relative_placement(), w.cores,
                           w.switches);
  const Floorplan before = session.solve();
  std::vector<SlotShapeUpdate> updates;
  updates.push_back({w.topology->num_slots() + 5, BlockShape::soft_block(7.0)});
  updates.push_back({-1, std::nullopt});
  session.update_shapes(updates);
  expect_bit_identical(session.solve(), before, "unplaced slots");
}

}  // namespace
}  // namespace sunmap::fplan
