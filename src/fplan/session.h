#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fplan/floorplan.h"
#include "fplan/floorplanner.h"
#include "topo/topology.h"

namespace sunmap::fplan {

/// One slot's shape change for FloorplanSession::update_shapes: the core
/// shape now occupying the slot, or nullopt to empty it. Switch shapes are
/// placement-invariant and fixed at session construction.
struct SlotShapeUpdate {
  int slot = 0;
  std::optional<BlockShape> shape;
};

/// Session-based incremental floorplanner: the stateful counterpart of
/// Floorplanner::place for callers that solve a *sequence* of closely
/// related shape assignments (the mapping search's pairwise-swap loop, the
/// explorer's per-topology sweeps).
///
/// The one-shot place() pays, on every call, for (1) resolving placement
/// items against the shape tables, (2) building the column/row constraint
/// graphs — per-column member lists, per-cell stacks sorted by stacking
/// order, per-row cell lists — and (3) a soft-block sizing descent whose
/// every candidate trial re-derives the chip extents from scratch. A
/// session splits those stages apart and keeps (1) and (2) alive across
/// solves:
///
///  * update_shapes() applies a delta (a pairwise swap touches <= 2 slots):
///    only the touched items are re-resolved and only their columns, cells,
///    and rows have their longest-path aggregates re-derived; everything
///    downstream of a dirty column/row (the chip-extent prefix sums) is
///    re-run at the next solve. When the dirty set covers most of the
///    design the patching is abandoned and the next solve re-derives every
///    aggregate (the full-solve fallback).
///  * solve() runs the sizing descent over the persistent structure; each
///    candidate trial re-solves only the candidate's own column/row
///    constraint chains (a max per column, a stack sum per cell) plus the
///    downstream extent sums, instead of rebuilding the whole layout.
///  * push_shapes()/pop_shapes()/commit_shapes() are the speculative
///    (transactional) form of update_shapes(): a push journals what it
///    displaces, a pop restores it in O(frame) — the protocol
///    mapping::DeltaTxn drives so annealing accept/reject pairs solve
///    incrementally in both directions.
///
/// Incremental solves are bit-identical to from-scratch ones: every
/// aggregate a delta dirties is recomputed with the same loop, in the same
/// order, as the full derivation, and max/assignment carry no accumulated
/// state — so Floorplanner::place (itself a one-shot session) and a session
/// driven through any update history agree on every block position, chip
/// dimension, and area to the last bit (asserted by the randomized
/// swap-sequence property tests and by bench_floorplan --json).
///
/// Sessions are single-threaded; mapping::EvalScratch owns one, and the
/// explorer keeps one scratch per topology, mapped by one thread at a time.
class FloorplanSession {
 public:
  using Options = Floorplanner::Options;

  /// Captures the placement structure and the initial shape assignment.
  /// `core_shapes` is indexed by SlotId (nullopt = empty slot) and
  /// `switch_shapes` by switch NodeId, exactly as Floorplanner::place takes
  /// them; the shapes are resolved into the session's own items and the
  /// placement is copied, so neither argument needs to outlive the call.
  FloorplanSession(Options options, const topo::RelativePlacement& placement,
                   const std::vector<std::optional<BlockShape>>& core_shapes,
                   const std::vector<BlockShape>& switch_shapes);

  /// Applies a shape delta. Updates whose shape equals the slot's current
  /// one are no-ops; updates for slots the placement does not position are
  /// ignored (place() never sees their shapes either). Must not be called
  /// while speculative frames are open (throws std::logic_error) — an
  /// untracked mutation would make pop_shapes() restore the wrong base.
  void update_shapes(const SlotShapeUpdate* updates, std::size_t count);
  void update_shapes(const std::vector<SlotShapeUpdate>& updates) {
    update_shapes(updates.data(), updates.size());
  }

  // ---- Speculative frames (the transactional half of the API). ----
  //
  // push_shapes() applies a delta like update_shapes() but opens an undo
  // frame first, journaling everything the delta displaces: the touched
  // nodes' occupancy and shapes, and — because a solve() between push and
  // pop patches them — the per-column/cell/row longest-path aggregates the
  // delta dirties, plus the pending-delta bookkeeping and the solved flag.
  // pop_shapes() restores the journaled state in O(frame) time: node shapes
  // are re-resolved, displaced aggregates are written back verbatim (no
  // re-derivation), and the pre-push dirty set returns, so the session is
  // bit-identically the session it was before the push — including a still
  // -valid cached solve when none ran in between. commit_shapes() keeps the
  // current state and drops every open frame.
  //
  // Frames nest (push/push/pop/pop); mapping::DeltaTxn drives one frame per
  // speculative evaluation inside it. When a push trips the ¼-dirty
  // full-solve fallback, or a solve() under an open frame re-derives every
  // aggregate, the frame degrades gracefully: pop_shapes() restores the
  // node states and schedules a full re-derivation instead of surgically
  // restoring aggregates (rollback-after-fallback stays exact, it just
  // pays a full solve next).

  /// Applies a delta under a new undo frame. Same no-op/unplaced-slot
  /// semantics as update_shapes().
  void push_shapes(const SlotShapeUpdate* updates, std::size_t count);
  void push_shapes(const std::vector<SlotShapeUpdate>& updates) {
    push_shapes(updates.data(), updates.size());
  }

  /// Rolls back the most recent open frame. Throws std::logic_error when no
  /// frame is open.
  void pop_shapes();

  /// Accepts the current state: drops every open frame without restoring.
  void commit_shapes();

  /// Open speculative frames (0 outside a transaction).
  [[nodiscard]] int journal_depth() const {
    return static_cast<int>(journal_depth_);
  }

  /// Solves the current assignment and returns the floorplan, bit-identical
  /// to Floorplanner(options()).place(placement, core_shapes,
  /// switch_shapes). The result is cached: a solve with no intervening
  /// effective update is free.
  [[nodiscard]] const Floorplan& solve();

  [[nodiscard]] const Options& options() const { return options_; }

  /// Solve-path counters, for the tests' and benches' reuse assertions.
  struct Stats {
    std::uint64_t solves = 0;             ///< Solves that did any work.
    std::uint64_t cached_solves = 0;      ///< No effective delta since last.
    std::uint64_t incremental_solves = 0; ///< Dirty aggregates patched.
    std::uint64_t full_solves = 0;        ///< Every aggregate re-derived.
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// One distinct block shape's resolution against the session options: the
  /// stage-1 (pre-sizing) dimensions and, for soft blocks, the candidate
  /// (w, h) pairs of the sizing descent — the candidate aspects clipped to the
  /// shape's range, duplicates dropped (a duplicate re-derives an identical
  /// chip and can never pass the strict improvement test). Depends only on
  /// (shape, options), so the session interns one entry per distinct shape
  /// it ever sees: a delta that moves a shape onto a slot — and a journal
  /// pop that moves it back off — costs an index assignment, not a
  /// re-derivation of the candidate list.
  struct ResolvedShape {
    BlockShape shape;
    double init_w = 0.0, init_h = 0.0;
    std::vector<std::pair<double, double>> candidate_dims;
  };

  /// One placement item with its resolved shape. `init_w/init_h` mirror the
  /// interned resolution (hot-loop locality); `w/h` are the working
  /// dimensions the sizing descent iterates on; `resolved` indexes
  /// resolved_shapes_ (-1 while absent).
  struct Node {
    PlacedBlock::Kind kind = PlacedBlock::Kind::kSwitch;
    int index = 0;  ///< SlotId for cores, switch NodeId for switches.
    int row = 0, col = 0, sub = 0;
    bool present = false;
    BlockShape shape;
    int resolved = -1;
    double init_w = 0.0, init_h = 0.0;
    double w = 0.0, h = 0.0;
  };

  /// One speculative frame of the undo journal. `nodes` records the
  /// pre-push occupancy/shape of every effectively-changed node;
  /// `col_w`/`cell_h`/`row_h`/`col_h` record the init longest-path
  /// aggregates the pushed nodes dirty, as they stood at push time (a
  /// solve() while the frame is open patches exactly those). Frames are
  /// pooled: pop/commit only move `journal_depth_`, so steady-state
  /// annealing pushes allocate nothing.
  struct JournalFrame {
    struct NodeUndo {
      int id = 0;
      bool present = false;
      BlockShape shape;
      int resolved = -1;
      double init_w = 0.0, init_h = 0.0;
    };
    std::vector<NodeUndo> nodes;
    std::vector<std::pair<int, double>> col_w;
    std::vector<std::pair<int, double>> cell_h;
    std::vector<std::pair<int, double>> row_h;
    std::vector<std::pair<int, double>> col_h;
    std::vector<int> base_dirty_nodes;  ///< dirty_nodes_ at push time.
    bool base_all_dirty = false;
    bool base_solved = false;
    bool solved_through = false;  ///< A solve ran while the frame was open.
    bool solved_full = false;     ///< ...and it re-derived every aggregate.

    void reset() {
      nodes.clear();
      col_w.clear();
      cell_h.clear();
      row_h.clear();
      col_h.clear();
      base_dirty_nodes.clear();
      base_all_dirty = base_solved = solved_through = solved_full = false;
    }
  };

  /// Shared body of update_shapes/push_shapes; journals into `frame` when
  /// one is given.
  void apply_updates(const SlotShapeUpdate* updates, std::size_t count,
                     JournalFrame* frame);

  /// Find-or-intern `shape` in resolved_shapes_; returns its index.
  [[nodiscard]] int resolve_shape(const BlockShape& shape);
  void resolve_node(Node& node);
  void build_structure(const std::vector<std::optional<BlockShape>>& cores,
                       const std::vector<BlockShape>& switches);
  void rederive_all_init_aggregates();
  void patch_init_aggregates();
  /// Re-derives one column's / one cell's / one row's init aggregate with
  /// the exact arithmetic of the full derivation.
  void rederive_col(int col);
  void rederive_cell(int cell);
  void rederive_row(int row);

  // ---- Sizing-descent helpers over the working aggregates. ----
  void set_dims(int node_id, double w, double h);
  void run_sizing_descent();
  [[nodiscard]] Floorplan place_band();
  [[nodiscard]] Floorplan place_simplex() const;

  Options options_;
  topo::RelativePlacement placement_;
  bool grid_ = true;
  int ncols_ = 0, nrows_ = 0;
  double spacing_ = 0.0;

  std::vector<Node> nodes_;    ///< Placement order.
  std::vector<int> slot_node_; ///< SlotId -> node id, -1 when unplaced.
  /// Interned per-shape resolutions (a design has a handful of distinct
  /// shapes; linear find-or-insert by exact equality).
  std::vector<ResolvedShape> resolved_shapes_;

  // ---- Constraint-graph structure (placement-only, built once). ----
  std::vector<std::vector<int>> col_members_; ///< Width-max members per col.
  std::vector<int> node_cell_;                ///< Grid: node -> cell id.
  std::vector<std::vector<int>> cell_stack_;  ///< Grid: stack order per cell.
  std::vector<std::vector<int>> row_cells_;   ///< Grid: cell ids per row.
  std::vector<std::vector<int>> col_stack_;   ///< Columns: stack per col.

  // ---- Presence counts (maintained by update_shapes). ----
  std::vector<int> col_present_;
  std::vector<int> row_present_;  ///< Grid mode only.
  std::vector<int> cell_present_; ///< Grid mode only.

  // ---- Longest-path aggregates of the init dims (delta-patched). ----
  std::vector<double> init_col_width_;
  std::vector<double> init_cell_height_; ///< Grid mode.
  std::vector<double> init_row_height_;  ///< Grid mode.
  std::vector<double> init_col_height_;  ///< Columns mode.

  // ---- Working aggregates of the sizing descent. ----
  std::vector<double> col_width_;
  std::vector<double> cell_height_;
  std::vector<double> row_height_;
  std::vector<double> col_height_;

  // ---- Delta bookkeeping. ----
  std::vector<JournalFrame> journal_;  ///< Pooled frames; depth_ are open.
  std::size_t journal_depth_ = 0;
  std::vector<int> dirty_nodes_;
  std::vector<int> dirty_cols_scratch_;
  std::vector<int> dirty_cells_scratch_;
  std::vector<int> dirty_rows_scratch_;
  bool all_dirty_ = true;
  bool solved_ = false;
  Floorplan last_;
  Stats stats_;

  // Reusable position scratch of place_band (sized in build_structure, so
  // incremental solves allocate nothing but the returned blocks).
  std::vector<double> col_x_scratch_;
  std::vector<double> row_y_scratch_;
  std::vector<std::pair<double, double>> pos_scratch_;

};

}  // namespace sunmap::fplan
