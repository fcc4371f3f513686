#include "mapping/search_strategy.h"

#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "mapping/delta_txn.h"
#include "mapping/eval_context.h"
#include "util/prng.h"

namespace sunmap::mapping {

namespace {

/// The annealing schedule: the initial temperature relative to the
/// starting energy, the geometric cooling factor per iteration, and the
/// seed of the single chain (restart chain r takes kAnnealingSeed + r).
constexpr double kAnnealingT0 = 0.3;
constexpr double kAnnealingCooling = 0.995;
constexpr std::uint64_t kAnnealingSeed = 1;

/// The annealing energy: objective cost with smooth infeasibility penalties
/// so the walk can cross infeasible regions.
double annealing_energy(const Evaluation& eval, const MapperConfig& cfg) {
  double value = eval.cost;
  if (!eval.bandwidth_feasible) {
    value += 2.0 * (eval.max_link_load_mbps - cfg.link_bandwidth_mbps) /
             cfg.link_bandwidth_mbps * eval.cost;
  }
  if (!eval.area_feasible) value *= 2.0;
  return value;
}

/// One independent annealing chain, from the initial mapping under one seed.
struct ChainOutcome {
  std::vector<int> best_mapping;
  Evaluation best_eval;
  int evaluated = 0;
  /// (area, power) trace, in iteration order, when the config collects it.
  std::vector<std::pair<double, double>> explored;
};

/// Metropolis acceptance over random moves with geometric cooling. The
/// chain itself cannot be bound-pruned (even a worse candidate may be
/// accepted, and its exact cost feeds the Metropolis criterion), so the
/// speedup comes from the cached evaluation path and the transactional
/// floorplan/routing deltas. Every candidate runs as one DeltaTxn
/// speculation: commit keeps the move, rollback restores the mapping AND
/// both incremental sessions to the incumbent in O(dirty) — so both
/// accepted and rejected iterations re-solve from a few-slot delta, never
/// from the wreckage of a rejected candidate. The best *feasible-ranked*
/// mapping seen (under better_than) is what the chain returns.
///
/// With config.annealing_reheats > 0 the chain is split into equal segments
/// and the temperature is reset to kAnnealingT0 x the current energy at each
/// segment start; reheats = 0 reproduces the plain geometric schedule
/// bit-for-bit.
ChainOutcome run_annealing_chain(const EvalContext& ctx,
                                 const std::vector<int>& initial_mapping,
                                 const Evaluation& initial_eval,
                                 std::uint64_t seed, int iterations,
                                 double cooling, EvalScratch& scratch) {
  const topo::Topology& topology = ctx.topology();
  const MapperConfig& cfg = ctx.config();

  ChainOutcome out;
  out.best_mapping = initial_mapping;
  out.best_eval = initial_eval;

  util::Prng prng(seed);
  auto current = initial_mapping;
  auto current_eval = initial_eval;
  double temperature = kAnnealingT0 * annealing_energy(current_eval, cfg);
  std::vector<int> slot_to_core(static_cast<std::size_t>(topology.num_slots()),
                                -1);
  for (int c = 0; c < ctx.app().num_cores(); ++c) {
    slot_to_core[static_cast<std::size_t>(
        current[static_cast<std::size_t>(c)])] = c;
  }
  DeltaTxn txn(ctx, scratch, current, slot_to_core);

  // Exactly annealing_reheats resets, at the k/(reheats+1) fractions of the
  // budget (duplicates from tiny budgets collapse; a reset can never land
  // on iteration 0 or past the end).
  std::vector<int> reheat_points;
  for (int k = 1; k <= cfg.annealing_reheats; ++k) {
    const int point = static_cast<int>(
        static_cast<long long>(iterations) * k / (cfg.annealing_reheats + 1));
    if (point > 0 && (reheat_points.empty() || reheat_points.back() != point)) {
      reheat_points.push_back(point);
    }
  }
  std::size_t next_reheat = 0;

  for (int iter = 0; iter < iterations; ++iter) {
    if (next_reheat < reheat_points.size() &&
        iter == reheat_points[next_reheat]) {
      temperature = kAnnealingT0 * annealing_energy(current_eval, cfg);
      ++next_reheat;
    }
    const int a = prng.next_int(0, topology.num_slots() - 1);
    int b = prng.next_int(0, topology.num_slots() - 2);
    if (b >= a) ++b;
    if (slot_to_core[static_cast<std::size_t>(a)] < 0 &&
        slot_to_core[static_cast<std::size_t>(b)] < 0) {
      continue;  // both slots empty: no-op
    }

    txn.begin_swap(a, b);
    auto eval = txn.evaluate(/*materialize=*/false);
    ++out.evaluated;
    if (cfg.collect_explored) {
      out.explored.emplace_back(eval.design_area_mm2, eval.design_power_mw);
    }

    const double delta = annealing_energy(eval, cfg) -
                         annealing_energy(current_eval, cfg);
    const bool accept =
        delta <= 0.0 ||
        (temperature > 1e-12 && prng.chance(std::exp(-delta / temperature)));
    if (better_than(eval, out.best_eval)) {
      out.best_eval = eval;
      out.best_mapping = current;
    }
    if (accept) {
      txn.commit();
      current_eval = std::move(eval);
    } else {
      txn.rollback();
    }
    temperature *= cooling;
  }
  return out;
}

/// Folds one chain's outcome into the search result: counters and explored
/// trace always, the mapping only when it strictly improves (ties keep the
/// earlier result, which is what makes best-of-restarts deterministic in
/// seed order).
void commit_chain(ChainOutcome&& chain, MappingResult& result) {
  result.evaluated_mappings += chain.evaluated;
  result.explored_area_power.insert(
      result.explored_area_power.end(),
      std::make_move_iterator(chain.explored.begin()),
      std::make_move_iterator(chain.explored.end()));
  if (better_than(chain.best_eval, result.eval)) {
    result.eval = std::move(chain.best_eval);
    result.core_to_slot = std::move(chain.best_mapping);
  }
}

}  // namespace

void GreedySwapSearch::improve(const EvalContext& ctx, MappingResult& result,
                               EvalScratch& scratch) const {
  // Fig 5 steps 9-10: pairwise swaps of topology vertices. Swapping two
  // slots exchanges whatever occupies them (two cores, or a core and an
  // empty slot, which moves the core). Candidates are two-phase evaluated:
  // the objective's cost lower bound first, the full routing + floorplanning
  // evaluation only for candidates the bound cannot reject. Every candidate
  // is one DeltaTxn speculation — rollback leaves the mapping and floorplan
  // session exactly on the incumbent, commit keeps the swap.
  const topo::Topology& topology = ctx.topology();
  const MapperConfig& cfg = ctx.config();
  const int num_slots = topology.num_slots();
  std::vector<int>& mapping = result.core_to_slot;
  std::vector<int> slot_to_core(static_cast<std::size_t>(num_slots), -1);
  for (int c = 0; c < ctx.app().num_cores(); ++c) {
    slot_to_core[static_cast<std::size_t>(
        mapping[static_cast<std::size_t>(c)])] = c;
  }

  DeltaTxn txn(ctx, scratch, mapping, slot_to_core);
  for (int pass = 0; pass < cfg.swap_passes; ++pass) {
    bool improved = false;
    for (int a = 0; a < num_slots; ++a) {
      for (int b = a + 1; b < num_slots; ++b) {
        if (slot_to_core[static_cast<std::size_t>(a)] < 0 &&
            slot_to_core[static_cast<std::size_t>(b)] < 0) {
          continue;  // both empty: no-op
        }
        txn.begin_swap(a, b);
        ++result.evaluated_mappings;
        if (txn.prunable(result.eval)) {
          ++result.pruned_mappings;
          txn.rollback();
          continue;
        }
        auto eval = txn.evaluate(/*materialize=*/false);
        if (cfg.collect_explored) {
          result.explored_area_power.emplace_back(eval.design_area_mm2,
                                                  eval.design_power_mw);
        }
        if (better_than(eval, result.eval)) {
          result.eval = std::move(eval);
          txn.commit();  // keep the swap
          improved = true;
        } else {
          txn.rollback();
        }
      }
    }
    if (!improved) break;
  }
}

void AnnealingSearch::improve(const EvalContext& ctx, MappingResult& result,
                              EvalScratch& scratch) const {
  const MapperConfig& cfg = ctx.config();
  commit_chain(run_annealing_chain(ctx, result.core_to_slot, result.eval,
                                   kAnnealingSeed, cfg.annealing_iterations,
                                   kAnnealingCooling, scratch),
               result);
}

void RestartAnnealingSearch::improve(const EvalContext& ctx,
                                     MappingResult& result,
                                     EvalScratch& scratch) const {
  const MapperConfig& cfg = ctx.config();
  const int restarts = cfg.annealing_restarts;
  const int total = cfg.annealing_iterations;

  // The total iteration budget is divided evenly across the restarts (the
  // first total % restarts chains get one extra), so a restart sweep stays
  // cost-comparable with the single-seed annealer at the same
  // annealing_iterations. Each chain's cooling is compressed so its shorter
  // schedule spans the same temperature range as the single full-length
  // chain would (cooling^(total/budget) per step); chains that get the full
  // budget keep the configured factor untouched.
  //
  // Every chain starts from the initial mapping, not from an earlier
  // chain's best, and all of them run on the caller's scratch (and with it
  // one floorplan session). Folding the chains in seed order keeps ties on
  // the lowest restart index.
  const std::vector<int> initial_mapping = result.core_to_slot;
  const Evaluation initial_eval = result.eval;
  for (int r = 0; r < restarts; ++r) {
    const int budget = total / restarts + (r < total % restarts ? 1 : 0);
    double cooling = kAnnealingCooling;
    if (budget > 0 && budget < total) {
      cooling =
          std::pow(kAnnealingCooling, static_cast<double>(total) / budget);
    }
    commit_chain(run_annealing_chain(
                     ctx, initial_mapping, initial_eval,
                     kAnnealingSeed + static_cast<std::uint64_t>(r), budget,
                     cooling, scratch),
                 result);
  }
}

std::unique_ptr<SearchStrategy> make_search_strategy(SearchKind kind) {
  switch (kind) {
    case SearchKind::kGreedySwaps:
      return std::make_unique<GreedySwapSearch>();
    case SearchKind::kAnnealing:
      return std::make_unique<AnnealingSearch>();
    case SearchKind::kRestartAnnealing:
      return std::make_unique<RestartAnnealingSearch>();
  }
  return std::make_unique<GreedySwapSearch>();
}

}  // namespace sunmap::mapping
