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

/// Session-based floorplanner: the stateful counterpart of
/// Floorplanner::place for callers that solve a *sequence* of closely
/// related shape assignments (the mapping search's pairwise-swap loop, the
/// explorer's per-topology sweeps).
///
/// The one-shot place() pays, on every call, for (1) resolving placement
/// items against the shape tables, (2) building the column/row constraint
/// graphs — per-column member lists, per-cell stacks sorted by stacking
/// order, per-row cell lists — and (3) a soft-block sizing descent. A
/// session builds (2) once and interns (1) per distinct shape, so a solve
/// pays only for (3) and the placement:
///
///  * update_shapes() applies a delta (a pairwise swap touches <= 2 slots,
///    a search's next candidate after a rejected one <= 4): only the
///    touched slots are re-resolved, by an index into the interned shapes.
///  * solve() resets every present block to its stage-1 dimensions,
///    derives the column, cell and row longest-path aggregates from them,
///    runs the sizing descent — each candidate trial re-solves only the
///    candidate's own column/row constraint chains plus the downstream
///    extent sums — and places the blocks.
///
/// Floorplanner::place is a session solved once, so every solve runs the
/// same code on the same inputs and is bit-identical to it by construction
/// (asserted by the randomized swap-sequence tests and by bench_floorplan
/// --json).
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
  /// ignored (place() never sees their shapes either).
  void update_shapes(const SlotShapeUpdate* updates, std::size_t count);
  void update_shapes(const std::vector<SlotShapeUpdate>& updates) {
    update_shapes(updates.data(), updates.size());
  }

  /// Solves the current assignment and returns the floorplan, bit-identical
  /// to Floorplanner(options()).place(placement, core_shapes,
  /// switch_shapes). The result is cached: a solve with no intervening
  /// effective update is free.
  [[nodiscard]] const Floorplan& solve();

  [[nodiscard]] const Options& options() const { return options_; }

  /// Solve counters. Every solve that does any work derives every
  /// aggregate, so `full_solves` equals `solves` and `incremental_solves`
  /// stays 0; both are kept because perfbench/sunbench.cpp reads them.
  struct Stats {
    std::uint64_t solves = 0;             ///< Solves that did any work.
    std::uint64_t cached_solves = 0;      ///< No effective delta since last.
    std::uint64_t incremental_solves = 0; ///< Always 0.
    std::uint64_t full_solves = 0;        ///< Equals solves.
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// One distinct block shape's resolution against the session options: the
  /// stage-1 (pre-sizing) dimensions and, for soft blocks, the candidate
  /// (w, h) pairs of the sizing descent — the candidate aspects clipped to the
  /// shape's range, duplicates dropped (a duplicate re-derives an identical
  /// chip and can never pass the strict improvement test). Depends only on
  /// (shape, options), so the session interns one entry per distinct shape
  /// it ever sees: a delta that moves a shape onto a slot costs an index
  /// assignment, not a re-derivation of the candidate list.
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

  /// Find-or-intern `shape` in resolved_shapes_; returns its index.
  [[nodiscard]] int resolve_shape(const BlockShape& shape);
  void resolve_node(Node& node);
  void build_structure(const std::vector<std::optional<BlockShape>>& cores,
                       const std::vector<BlockShape>& switches);
  /// Adds `delta` to the presence counts of the node's column, row and cell.
  void count_presence(int node_id, int delta);
  /// Stage-1 state of the current assignment: every block at its resolved
  /// dimensions and the column/cell/row longest-path aggregates derived
  /// from them.
  void reset_to_stage1();
  /// The longest-path folds over the working dimensions, in the one-shot
  /// layout's order: a column's widest present member, a stack's
  /// spacing-separated height, a grid row band's tallest non-empty cell.
  [[nodiscard]] double column_width(int col) const;
  [[nodiscard]] double stack_height(const std::vector<int>& stack) const;
  [[nodiscard]] double row_band_height(int row) const;

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

  // ---- Working aggregates of the sizing descent. ----
  std::vector<double> col_width_;
  std::vector<double> cell_height_;  ///< Grid mode.
  std::vector<double> row_height_;   ///< Grid mode.
  std::vector<double> col_height_;   ///< Columns mode.

  bool solved_ = false;
  Floorplan last_;
  Stats stats_;

  // Reusable position scratch of place_band (sized in build_structure, so
  // solves allocate nothing but the returned blocks).
  std::vector<double> col_x_scratch_;
  std::vector<double> row_y_scratch_;
  std::vector<std::pair<double, double>> pos_scratch_;
};

}  // namespace sunmap::fplan
