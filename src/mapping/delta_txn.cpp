#include "mapping/delta_txn.h"

#include <stdexcept>
#include <utility>

#include "mapping/eval_context.h"

namespace sunmap::mapping {

void apply_slot_swap(int a, int b, std::vector<int>& core_to_slot,
                     std::vector<int>& slot_to_core) {
  const int core_a = slot_to_core[static_cast<std::size_t>(a)];
  const int core_b = slot_to_core[static_cast<std::size_t>(b)];
  if (core_a >= 0) core_to_slot[static_cast<std::size_t>(core_a)] = b;
  if (core_b >= 0) core_to_slot[static_cast<std::size_t>(core_b)] = a;
  std::swap(slot_to_core[static_cast<std::size_t>(a)],
            slot_to_core[static_cast<std::size_t>(b)]);
}

DeltaTxn::DeltaTxn(const EvalContext& ctx, EvalScratch& scratch,
                   std::vector<int>& core_to_slot,
                   std::vector<int>& slot_to_core)
    : ctx_(ctx),
      scratch_(scratch),
      core_to_slot_(core_to_slot),
      slot_to_core_(slot_to_core) {
  if (scratch_.txn_depth != 0) {
    throw std::logic_error(
        "DeltaTxn: scratch already carries an open speculation");
  }
}

DeltaTxn::~DeltaTxn() {
  // Exception safety: a speculation abandoned mid-flight (an evaluate()
  // throwing, a search unwound early) must not leak swapped mappings or
  // speculative routing frames into the committed state.
  if (open_) rollback();
}

void DeltaTxn::begin_swap(int slot_a, int slot_b) {
  if (open_) {
    throw std::logic_error(
        "DeltaTxn::begin_swap: previous speculation not settled");
  }
  apply_slot_swap(slot_a, slot_b, core_to_slot_, slot_to_core_);
  slot_a_ = slot_a;
  slot_b_ = slot_b;
  open_ = true;
  scratch_.txn_depth = 1;
}

Evaluation DeltaTxn::evaluate() const {
  return ctx_.evaluate(core_to_slot_, scratch_, /*materialize=*/false);
}

bool DeltaTxn::prunable(const Evaluation& incumbent) const {
  return ctx_.prunable(core_to_slot_, incumbent, scratch_);
}

void DeltaTxn::commit() {
  if (!open_) throw std::logic_error("DeltaTxn::commit: no open speculation");
  if (scratch_.routing_session) scratch_.routing_session->commit();
  scratch_.txn_depth = 0;
  open_ = false;
}

void DeltaTxn::rollback() {
  if (!open_) {
    throw std::logic_error("DeltaTxn::rollback: no open speculation");
  }
  // The exchange is self-inverse, so applying it again restores the
  // mapping. Every open routing frame is this speculation's, including one
  // a throwing solve left open. The floorplan session and its key stay on
  // the speculation: the next miss diffs against them.
  apply_slot_swap(slot_a_, slot_b_, core_to_slot_, slot_to_core_);
  while (scratch_.routing_session &&
         scratch_.routing_session->open_frames() > 0) {
    scratch_.routing_session->pop();
  }
  scratch_.txn_depth = 0;
  open_ = false;
}

}  // namespace sunmap::mapping
