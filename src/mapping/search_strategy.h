#pragma once

#include <memory>

#include "mapping/mapper.h"

namespace sunmap::mapping {

class EvalContext;
struct EvalScratch;

/// A pluggable mapping-search strategy: given an evaluation context and a
/// MappingResult primed with the initial mapping and its evaluation,
/// improve() explores the mapping space and leaves the best mapping found in
/// `result` (core_to_slot + eval, plus the evaluated/pruned counters and the
/// explored-mapping trace when the context's config collects it).
///
/// Strategies are stateless: every knob is read from the context's bound
/// MapperConfig, so one strategy instance can serve any number of searches
/// and a context rebind() is all a design-space sweep needs to switch
/// schedules. Implementations must be deterministic for a fixed config and
/// run on the calling thread: the explorer spreads topologies, not
/// candidates, over its threads.
///
/// Candidate speculation goes through the shared transactional protocol
/// (mapping::DeltaTxn, delta_txn.h): begin_swap -> prunable/evaluate ->
/// commit | rollback. The transaction keeps the mapping arrays and the
/// scratch's routing session in lock step, so a strategy that opts in
/// leaves no rejected candidate behind in either — see the DeltaTxn docs
/// for how a new strategy adopts it.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  /// Stable strategy name, matching to_string(SearchKind).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Improves result.core_to_slot / result.eval in place. On entry `result`
  /// holds the initial mapping and its light evaluation (no routes or
  /// floorplan); on exit it holds the best mapping found, also light
  /// (Mapper::map() materializes the winner once). `scratch` is the
  /// caller's per-thread evaluation scratch — it carries the floorplan and
  /// routing sessions, so every candidate must evaluate through it.
  virtual void improve(const EvalContext& ctx, MappingResult& result,
                       EvalScratch& scratch) const = 0;
};

/// Fig 5 steps 9-10: hill climbing over all pairwise slot swaps with
/// two-phase (bound-pruned) candidate evaluation.
class GreedySwapSearch final : public SearchStrategy {
 public:
  [[nodiscard]] const char* name() const override { return "greedy-swaps"; }
  void improve(const EvalContext& ctx, MappingResult& result,
               EvalScratch& scratch) const override;
};

/// Single-chain simulated annealing: random pairwise swaps accepted with the
/// Metropolis criterion under geometric cooling (optionally re-heated), the
/// best feasible-ranked mapping seen kept.
class AnnealingSearch final : public SearchStrategy {
 public:
  [[nodiscard]] const char* name() const override { return "annealing"; }
  void improve(const EvalContext& ctx, MappingResult& result,
               EvalScratch& scratch) const override;
};

/// Multi-restart simulated annealing: config.annealing_restarts independent
/// chains (seed 1 + r), each starting from the initial mapping
/// and running an equal share of the total iteration budget under a
/// compressed cooling schedule, best-of-restarts kept. Chains run one after
/// another on the caller's scratch and are folded in seed order, ties to
/// the lowest restart index.
class RestartAnnealingSearch final : public SearchStrategy {
 public:
  [[nodiscard]] const char* name() const override {
    return "restart-annealing";
  }
  void improve(const EvalContext& ctx, MappingResult& result,
               EvalScratch& scratch) const override;
};

/// The strategy implementing config.search. The returned strategy is
/// stateless and may outlive `config`.
[[nodiscard]] std::unique_ptr<SearchStrategy> make_search_strategy(
    SearchKind kind);

}  // namespace sunmap::mapping
