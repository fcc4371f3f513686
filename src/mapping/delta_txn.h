#pragma once

#include <vector>

#include "mapping/mapper.h"

namespace sunmap::mapping {

class EvalContext;
struct EvalScratch;

/// The transactional delta-evaluation protocol of the mapping search: one
/// begin -> speculative evaluate -> commit | rollback cycle that atomically
/// spans the state a candidate swap must undo —
///
///  * the mapping arrays (core_to_slot and its slot_to_core inverse), and
///  * the scratch's route::RoutingSession (adaptive-routing evaluations
///    under an open speculation solve speculatively, moving the displaced
///    routes and loads into session frames that rollback pops).
///
/// Two pieces of state need no undo. The EvalContext memo caches are pure
/// memoisation: a speculative result cached during a rolled-back
/// transaction is still the exact value any later evaluation of that
/// mapping computes. The scratch's fplan::FloorplanSession keeps whatever
/// a speculation solved, with EvalScratch::fplan_session_key naming it, so
/// the next floorplan miss sends the rejected candidate's slots back along
/// with its own delta.
///
/// begin_swap() applies one pairwise slot exchange. evaluate()/prunable()
/// then see the speculative mapping through the normal EvalContext entry
/// points; commit() keeps it, rollback() restores the mapping (the exchange
/// is self-inverse) and the routing session's routes and loads,
/// bit-identically to the state before begin_swap().
///
/// The transaction borrows everything it coordinates; the context, scratch,
/// and both mapping vectors must outlive it. One scratch carries at most
/// one open speculation (begin_swap() under an open one throws); searches
/// on different threads each run their own transaction over their own
/// scratch.
/// Destroying an open transaction rolls it back.
class DeltaTxn {
 public:
  DeltaTxn(const EvalContext& ctx, EvalScratch& scratch,
           std::vector<int>& core_to_slot, std::vector<int>& slot_to_core);
  ~DeltaTxn();

  DeltaTxn(const DeltaTxn&) = delete;
  DeltaTxn& operator=(const DeltaTxn&) = delete;

  /// Applies the pairwise swap of slots (a, b) to the mapping arrays and
  /// opens the speculation. Swapping two empty slots is the caller's no-op
  /// to skip; a swap involving one empty slot moves the occupying core.
  /// Throws under an already-open speculation.
  void begin_swap(int slot_a, int slot_b);

  /// Evaluates the current (speculative or committed) mapping through the
  /// context. Works outside a speculation too — e.g. for the initial
  /// mapping — where it behaves exactly like ctx.evaluate().
  [[nodiscard]] Evaluation evaluate(bool materialize = false) const;

  /// Phase-1 bound check of the current mapping against `incumbent`
  /// (EvalContext::prunable through this transaction's scratch).
  [[nodiscard]] bool prunable(const Evaluation& incumbent) const;

  /// Keeps the speculative swap: the mapping stays, the routing session's
  /// frames are committed, and the transaction is ready for the next
  /// begin_swap().
  void commit();

  /// Undoes the speculative swap: the mapping arrays and the routing
  /// session's state return to their pre-begin_swap() values.
  void rollback();

  [[nodiscard]] bool open() const { return open_; }

 private:
  const EvalContext& ctx_;
  EvalScratch& scratch_;
  std::vector<int>& core_to_slot_;
  std::vector<int>& slot_to_core_;
  int slot_a_ = -1, slot_b_ = -1;  ///< the open speculation's swap
  bool open_ = false;
};

/// Applies the pairwise swap of slots (a, b) to a mapping and its inverse in
/// place. Self-inverse: applying it twice restores both arrays — the
/// primitive DeltaTxn's begin/rollback are built on.
void apply_slot_swap(int a, int b, std::vector<int>& core_to_slot,
                     std::vector<int>& slot_to_core);

}  // namespace sunmap::mapping
