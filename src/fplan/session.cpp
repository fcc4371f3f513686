#include "fplan/session.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fplan/lp.h"

namespace sunmap::fplan {

namespace {

using Mode = topo::RelativePlacement::Mode;

/// Candidate aspect ratios (w/h) the sizing descent tries for each soft
/// block, clipped to the block's own [min_aspect, max_aspect] range.
constexpr std::array<double, 7> kAspectCandidates = {
    1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0};

/// The literal LP engine over already-sized items (the paper's formulation
/// [21]): minimise W + H subject to the relative-position ordering and
/// boundary constraints. Shared by every session regardless of how the item
/// dimensions were derived, so the simplex engine benefits from the
/// incremental sizing stages unchanged.
Floorplan solve_simplex_lp(const topo::RelativePlacement& placement,
                           const std::vector<Floorplanner::Item>& items,
                           double spacing) {
  const int n = static_cast<int>(items.size());
  if (n == 0) return Floorplan({}, 0.0, 0.0);
  LinearProgram lp(2 * n + 2);
  const int var_w = 2 * n;
  const int var_h = 2 * n + 1;
  lp.set_objective(var_w, 1.0);
  lp.set_objective(var_h, 1.0);

  auto var_x = [](int i) { return 2 * i; };
  auto var_y = [](int i) { return 2 * i + 1; };

  // Boundary constraints: x_i + w_i <= W, y_i + h_i <= H.
  for (int i = 0; i < n; ++i) {
    lp.add_constraint({{var_x(i), 1.0}, {var_w, -1.0}},
                      LinearProgram::Relation::kLe,
                      -items[static_cast<std::size_t>(i)].w);
    lp.add_constraint({{var_y(i), 1.0}, {var_h, -1.0}},
                      LinearProgram::Relation::kLe,
                      -items[static_cast<std::size_t>(i)].h);
  }

  // Ordering constraints between consecutive non-empty columns.
  const int ncols = std::max(placement.num_cols, 1);
  std::vector<std::vector<int>> by_col(static_cast<std::size_t>(ncols));
  for (int i = 0; i < n; ++i) {
    by_col.at(static_cast<std::size_t>(items[static_cast<std::size_t>(i)].col))
        .push_back(i);
  }
  int prev_col = -1;
  for (int c = 0; c < ncols; ++c) {
    if (by_col[static_cast<std::size_t>(c)].empty()) continue;
    if (prev_col >= 0) {
      for (int a : by_col[static_cast<std::size_t>(prev_col)]) {
        for (int b : by_col[static_cast<std::size_t>(c)]) {
          // x_b - x_a >= w_a + spacing
          lp.add_constraint({{var_x(b), 1.0}, {var_x(a), -1.0}},
                            LinearProgram::Relation::kGe,
                            items[static_cast<std::size_t>(a)].w + spacing);
        }
      }
    }
    prev_col = c;
  }

  if (placement.mode == Mode::kGrid) {
    // Row ordering plus intra-cell stacking.
    const int nrows = std::max(placement.num_rows, 1);
    std::vector<std::vector<int>> by_row(static_cast<std::size_t>(nrows));
    for (int i = 0; i < n; ++i) {
      by_row
          .at(static_cast<std::size_t>(items[static_cast<std::size_t>(i)].row))
          .push_back(i);
    }
    int prev_row = -1;
    for (int r = 0; r < nrows; ++r) {
      if (by_row[static_cast<std::size_t>(r)].empty()) continue;
      if (prev_row >= 0) {
        for (int a : by_row[static_cast<std::size_t>(prev_row)]) {
          for (int b : by_row[static_cast<std::size_t>(r)]) {
            lp.add_constraint({{var_y(b), 1.0}, {var_y(a), -1.0}},
                              LinearProgram::Relation::kGe,
                              items[static_cast<std::size_t>(a)].h + spacing);
          }
        }
      }
      prev_row = r;
      // Stacking within each cell of this row.
      for (int a : by_row[static_cast<std::size_t>(r)]) {
        for (int b : by_row[static_cast<std::size_t>(r)]) {
          const auto& ia = items[static_cast<std::size_t>(a)];
          const auto& ib = items[static_cast<std::size_t>(b)];
          if (ia.col == ib.col && ia.sub < ib.sub) {
            lp.add_constraint({{var_y(b), 1.0}, {var_y(a), -1.0}},
                              LinearProgram::Relation::kGe, ia.h + spacing);
          }
        }
      }
    }
  } else {
    // Columns mode: stacking within each column by row order.
    for (int c = 0; c < ncols; ++c) {
      auto column = by_col[static_cast<std::size_t>(c)];
      std::sort(column.begin(), column.end(), [&](int a, int b) {
        return items[static_cast<std::size_t>(a)].row <
               items[static_cast<std::size_t>(b)].row;
      });
      for (std::size_t k = 0; k + 1 < column.size(); ++k) {
        lp.add_constraint(
            {{var_y(column[k + 1]), 1.0}, {var_y(column[k]), -1.0}},
            LinearProgram::Relation::kGe,
            items[static_cast<std::size_t>(column[k])].h + spacing);
      }
    }
  }

  const auto solution = solve(lp);
  if (solution.status != LpStatus::kOptimal) {
    throw std::logic_error("FloorplanSession: LP did not reach optimality");
  }

  std::vector<PlacedBlock> blocks;
  blocks.reserve(items.size());
  for (int i = 0; i < n; ++i) {
    blocks.push_back(
        PlacedBlock{items[static_cast<std::size_t>(i)].kind,
                    items[static_cast<std::size_t>(i)].index,
                    solution.values[static_cast<std::size_t>(var_x(i))],
                    solution.values[static_cast<std::size_t>(var_y(i))],
                    items[static_cast<std::size_t>(i)].w,
                    items[static_cast<std::size_t>(i)].h});
  }
  return Floorplan(std::move(blocks),
                   solution.values[static_cast<std::size_t>(var_w)],
                   solution.values[static_cast<std::size_t>(var_h)]);
}

}  // namespace

FloorplanSession::FloorplanSession(
    Options options, const topo::RelativePlacement& placement,
    const std::vector<std::optional<BlockShape>>& core_shapes,
    const std::vector<BlockShape>& switch_shapes)
    : options_(std::move(options)), placement_(placement) {
  grid_ = placement_.mode == Mode::kGrid;
  ncols_ = std::max(placement_.num_cols, 1);
  nrows_ = std::max(placement_.num_rows, 1);
  spacing_ = options_.spacing_mm;
  build_structure(core_shapes, switch_shapes);
}

int FloorplanSession::resolve_shape(const BlockShape& shape) {
  for (std::size_t i = 0; i < resolved_shapes_.size(); ++i) {
    if (resolved_shapes_[i].shape == shape) return static_cast<int>(i);
  }
  ResolvedShape resolved;
  resolved.shape = shape;
  if (shape.soft) {
    resolved.init_w = std::sqrt(shape.area_mm2);
    resolved.init_h = resolved.init_w;
    // The descent's candidate dims in trial order: kAspectCandidates, then
    // the shape's own min and max, each clipped to the shape's range;
    // clip-collapsed duplicates dropped (an identical (w, h) re-derives an
    // identical chip, which can never pass the strict improvement test).
    resolved.candidate_dims.reserve(kAspectCandidates.size() + 2);
    const auto try_aspect = [&](double aspect) {
      const double clipped =
          std::clamp(aspect, shape.min_aspect, shape.max_aspect);
      const double w = std::sqrt(shape.area_mm2 * clipped);
      const double h = std::sqrt(shape.area_mm2 / clipped);
      for (const auto& [tw, th] : resolved.candidate_dims) {
        if (tw == w && th == h) return;
      }
      resolved.candidate_dims.emplace_back(w, h);
    };
    for (const double aspect : kAspectCandidates) try_aspect(aspect);
    try_aspect(shape.min_aspect);
    try_aspect(shape.max_aspect);
  } else {
    resolved.init_w = shape.width_mm;
    resolved.init_h = shape.height_mm;
  }
  resolved_shapes_.push_back(std::move(resolved));
  return static_cast<int>(resolved_shapes_.size() - 1);
}

void FloorplanSession::resolve_node(Node& node) {
  node.resolved = resolve_shape(node.shape);
  node.init_w = resolved_shapes_[static_cast<std::size_t>(node.resolved)].init_w;
  node.init_h = resolved_shapes_[static_cast<std::size_t>(node.resolved)].init_h;
}

void FloorplanSession::build_structure(
    const std::vector<std::optional<BlockShape>>& cores,
    const std::vector<BlockShape>& switches) {
  using Kind = topo::RelativePlacement::Item::Kind;
  nodes_.clear();
  nodes_.reserve(placement_.items.size());
  resolved_shapes_.clear();
  int max_slot = -1;
  for (const auto& item : placement_.items) {
    if (item.col < 0 || item.col >= ncols_) {
      throw std::out_of_range("FloorplanSession: item column out of range");
    }
    if (grid_ && (item.row < 0 || item.row >= nrows_)) {
      throw std::out_of_range("FloorplanSession: item row out of range");
    }
    Node node;
    node.index = item.index;
    node.row = item.row;
    node.col = item.col;
    node.sub = item.sub;
    if (item.kind == Kind::kCore) {
      node.kind = PlacedBlock::Kind::kCore;
      max_slot = std::max(max_slot, item.index);
      const auto& maybe = cores.at(static_cast<std::size_t>(item.index));
      node.present = maybe.has_value();
      if (node.present) node.shape = *maybe;
    } else {
      node.kind = PlacedBlock::Kind::kSwitch;
      node.present = true;
      node.shape = switches.at(static_cast<std::size_t>(item.index));
    }
    if (node.present) resolve_node(node);
    nodes_.push_back(node);
  }

  slot_node_.assign(static_cast<std::size_t>(max_slot + 1), -1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == PlacedBlock::Kind::kCore) {
      slot_node_[static_cast<std::size_t>(nodes_[i].index)] =
          static_cast<int>(i);
    }
  }

  // Constraint-graph structure: who shares a column band, a grid cell, a
  // row band. Ordering inside a stack is by (sub | row, placement order) —
  // a total order, so it is independent of which items are present and
  // matches what the one-shot layout's sort produced.
  col_members_.assign(static_cast<std::size_t>(ncols_), {});
  if (grid_) {
    node_cell_.assign(nodes_.size(), 0);
    cell_stack_.assign(
        static_cast<std::size_t>(nrows_) * static_cast<std::size_t>(ncols_),
        {});
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const auto& node = nodes_[i];
      const int cell = node.row * ncols_ + node.col;
      node_cell_[i] = cell;
      cell_stack_[static_cast<std::size_t>(cell)].push_back(
          static_cast<int>(i));
      col_members_[static_cast<std::size_t>(node.col)].push_back(
          static_cast<int>(i));
    }
    for (auto& stack : cell_stack_) {
      std::sort(stack.begin(), stack.end(), [&](int a, int b) {
        const auto& na = nodes_[static_cast<std::size_t>(a)];
        const auto& nb = nodes_[static_cast<std::size_t>(b)];
        if (na.sub != nb.sub) return na.sub < nb.sub;
        return a < b;
      });
    }
    row_cells_.assign(static_cast<std::size_t>(nrows_), {});
    for (int r = 0; r < nrows_; ++r) {
      for (int c = 0; c < ncols_; ++c) {
        const int cell = r * ncols_ + c;
        if (!cell_stack_[static_cast<std::size_t>(cell)].empty()) {
          row_cells_[static_cast<std::size_t>(r)].push_back(cell);
        }
      }
    }
  } else {
    col_stack_.assign(static_cast<std::size_t>(ncols_), {});
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      col_stack_[static_cast<std::size_t>(nodes_[i].col)].push_back(
          static_cast<int>(i));
      col_members_[static_cast<std::size_t>(nodes_[i].col)].push_back(
          static_cast<int>(i));
    }
    for (auto& stack : col_stack_) {
      std::sort(stack.begin(), stack.end(), [&](int a, int b) {
        const auto& na = nodes_[static_cast<std::size_t>(a)];
        const auto& nb = nodes_[static_cast<std::size_t>(b)];
        if (na.row != nb.row) return na.row < nb.row;
        return a < b;
      });
    }
  }

  col_present_.assign(static_cast<std::size_t>(ncols_), 0);
  if (grid_) {
    row_present_.assign(static_cast<std::size_t>(nrows_), 0);
    cell_present_.assign(cell_stack_.size(), 0);
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].present) continue;
    ++col_present_[static_cast<std::size_t>(nodes_[i].col)];
    if (grid_) {
      ++row_present_[static_cast<std::size_t>(nodes_[i].row)];
      ++cell_present_[static_cast<std::size_t>(node_cell_[i])];
    }
  }

  init_col_width_.assign(static_cast<std::size_t>(ncols_), 0.0);
  col_width_.assign(static_cast<std::size_t>(ncols_), 0.0);
  if (grid_) {
    init_cell_height_.assign(cell_stack_.size(), 0.0);
    cell_height_.assign(cell_stack_.size(), 0.0);
    init_row_height_.assign(static_cast<std::size_t>(nrows_), 0.0);
    row_height_.assign(static_cast<std::size_t>(nrows_), 0.0);
  } else {
    init_col_height_.assign(static_cast<std::size_t>(ncols_), 0.0);
    col_height_.assign(static_cast<std::size_t>(ncols_), 0.0);
  }

  col_x_scratch_.assign(static_cast<std::size_t>(ncols_), 0.0);
  row_y_scratch_.assign(static_cast<std::size_t>(nrows_), 0.0);
  pos_scratch_.assign(nodes_.size(), {0.0, 0.0});

  all_dirty_ = true;
  dirty_nodes_.clear();
  journal_depth_ = 0;
  for (auto& frame : journal_) frame.reset();
  solved_ = false;
}

void FloorplanSession::update_shapes(const SlotShapeUpdate* updates,
                                     std::size_t count) {
  if (journal_depth_ > 0) {
    throw std::logic_error(
        "FloorplanSession::update_shapes: speculative frames are open; use "
        "push_shapes or settle them with pop_shapes/commit_shapes first");
  }
  apply_updates(updates, count, /*frame=*/nullptr);
}

void FloorplanSession::push_shapes(const SlotShapeUpdate* updates,
                                   std::size_t count) {
  if (journal_.size() <= journal_depth_) journal_.emplace_back();
  JournalFrame& frame = journal_[journal_depth_];
  frame.reset();
  frame.base_all_dirty = all_dirty_;
  frame.base_solved = solved_;
  frame.base_dirty_nodes = dirty_nodes_;
  ++journal_depth_;
  apply_updates(updates, count, &frame);
}

void FloorplanSession::pop_shapes() {
  if (journal_depth_ == 0) {
    throw std::logic_error("FloorplanSession::pop_shapes: no frame is open");
  }
  JournalFrame& frame = journal_[--journal_depth_];

  // Restore the displaced node states in reverse push order, so a slot the
  // frame touched twice lands back on its original occupancy and shape.
  // The journaled resolution (interned-shape index + init dims) is written
  // back verbatim — the interned entry it points at never moves — so the
  // restored node is bit-identical to its pre-push self without touching
  // the resolver.
  for (auto it = frame.nodes.rbegin(); it != frame.nodes.rend(); ++it) {
    Node& node = nodes_[static_cast<std::size_t>(it->id)];
    if (node.present != it->present) {
      const int delta = it->present ? 1 : -1;
      col_present_[static_cast<std::size_t>(node.col)] += delta;
      if (grid_) {
        row_present_[static_cast<std::size_t>(node.row)] += delta;
        cell_present_[static_cast<std::size_t>(
            node_cell_[static_cast<std::size_t>(it->id)])] += delta;
      }
    }
    node.present = it->present;
    node.shape = it->shape;
    node.resolved = it->resolved;
    node.init_w = it->init_w;
    node.init_h = it->init_h;
  }

  if (frame.base_all_dirty || frame.solved_full) {
    // The frame's base already needed (or a solve under the frame performed)
    // a full re-derivation: surgical aggregate restoration has nothing valid
    // to write back, so the next solve re-derives everything from the
    // restored node states — exact, just not O(dirty).
    all_dirty_ = true;
    dirty_nodes_.clear();
  } else {
    // Write the displaced longest-path aggregates back verbatim (reverse
    // record order, so overlapping records end on the oldest value) and
    // restore the pre-push pending-delta set; aggregates a solve patched
    // for those pending nodes are re-patched at the next solve.
    for (auto it = frame.col_w.rbegin(); it != frame.col_w.rend(); ++it) {
      init_col_width_[static_cast<std::size_t>(it->first)] = it->second;
    }
    for (auto it = frame.cell_h.rbegin(); it != frame.cell_h.rend(); ++it) {
      init_cell_height_[static_cast<std::size_t>(it->first)] = it->second;
    }
    for (auto it = frame.row_h.rbegin(); it != frame.row_h.rend(); ++it) {
      init_row_height_[static_cast<std::size_t>(it->first)] = it->second;
    }
    for (auto it = frame.col_h.rbegin(); it != frame.col_h.rend(); ++it) {
      init_col_height_[static_cast<std::size_t>(it->first)] = it->second;
    }
    all_dirty_ = false;
    dirty_nodes_ = frame.base_dirty_nodes;
  }
  // A solve while the frame was open left last_ holding the speculative
  // floorplan; without one, the pre-push cached solve (if any) is still
  // exactly the restored state's solution.
  solved_ = frame.solved_through ? false : frame.base_solved;
  frame.reset();
}

void FloorplanSession::commit_shapes() {
  while (journal_depth_ > 0) journal_[--journal_depth_].reset();
}

void FloorplanSession::apply_updates(const SlotShapeUpdate* updates,
                                     std::size_t count, JournalFrame* frame) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto& update = updates[i];
    if (update.slot < 0 ||
        update.slot >= static_cast<int>(slot_node_.size())) {
      continue;  // the placement never positions this slot
    }
    const int id = slot_node_[static_cast<std::size_t>(update.slot)];
    if (id < 0) continue;
    Node& node = nodes_[static_cast<std::size_t>(id)];
    const bool want_present = update.shape.has_value();
    if (want_present == node.present &&
        (!want_present || *update.shape == node.shape)) {
      continue;  // no-op: same occupancy, same shape
    }
    if (frame != nullptr) {
      frame->nodes.push_back(JournalFrame::NodeUndo{
          id, node.present, node.shape, node.resolved, node.init_w,
          node.init_h});
      frame->col_w.emplace_back(
          node.col, init_col_width_[static_cast<std::size_t>(node.col)]);
      if (grid_) {
        const int cell = node_cell_[static_cast<std::size_t>(id)];
        frame->cell_h.emplace_back(
            cell, init_cell_height_[static_cast<std::size_t>(cell)]);
        frame->row_h.emplace_back(
            node.row, init_row_height_[static_cast<std::size_t>(node.row)]);
      } else {
        frame->col_h.emplace_back(
            node.col, init_col_height_[static_cast<std::size_t>(node.col)]);
      }
    }
    if (want_present != node.present) {
      const int delta = want_present ? 1 : -1;
      col_present_[static_cast<std::size_t>(node.col)] += delta;
      if (grid_) {
        row_present_[static_cast<std::size_t>(node.row)] += delta;
        cell_present_[static_cast<std::size_t>(
            node_cell_[static_cast<std::size_t>(id)])] += delta;
      }
    }
    node.present = want_present;
    if (want_present) {
      node.shape = *update.shape;
      resolve_node(node);
    }
    if (!all_dirty_) dirty_nodes_.push_back(id);
    solved_ = false;
  }
  // Large dirty sets lose the point of patching (each dirty node re-derives
  // its whole column/cell/row): fall back to re-deriving every aggregate at
  // the next solve once a quarter of the design is dirty.
  if (!all_dirty_ && 4 * dirty_nodes_.size() >= nodes_.size()) {
    all_dirty_ = true;
    dirty_nodes_.clear();
  }
}

void FloorplanSession::rederive_col(int col) {
  double width = 0.0;
  for (int id : col_members_[static_cast<std::size_t>(col)]) {
    const auto& node = nodes_[static_cast<std::size_t>(id)];
    if (node.present) width = std::max(width, node.init_w);
  }
  init_col_width_[static_cast<std::size_t>(col)] = width;
  if (!grid_) {
    double height = 0.0;
    bool first = true;
    for (int id : col_stack_[static_cast<std::size_t>(col)]) {
      const auto& node = nodes_[static_cast<std::size_t>(id)];
      if (!node.present) continue;
      if (!first) height += spacing_;
      height += node.init_h;
      first = false;
    }
    init_col_height_[static_cast<std::size_t>(col)] = height;
  }
}

void FloorplanSession::rederive_cell(int cell) {
  double height = 0.0;
  bool first = true;
  for (int id : cell_stack_[static_cast<std::size_t>(cell)]) {
    const auto& node = nodes_[static_cast<std::size_t>(id)];
    if (!node.present) continue;
    if (!first) height += spacing_;
    height += node.init_h;
    first = false;
  }
  init_cell_height_[static_cast<std::size_t>(cell)] = height;
}

void FloorplanSession::rederive_row(int row) {
  double height = 0.0;
  for (int cell : row_cells_[static_cast<std::size_t>(row)]) {
    if (cell_present_[static_cast<std::size_t>(cell)] > 0) {
      height =
          std::max(height, init_cell_height_[static_cast<std::size_t>(cell)]);
    }
  }
  init_row_height_[static_cast<std::size_t>(row)] = height;
}

void FloorplanSession::rederive_all_init_aggregates() {
  for (int c = 0; c < ncols_; ++c) rederive_col(c);
  if (grid_) {
    for (int cell = 0; cell < static_cast<int>(cell_stack_.size()); ++cell) {
      rederive_cell(cell);
    }
    for (int r = 0; r < nrows_; ++r) rederive_row(r);
  }
}

void FloorplanSession::patch_init_aggregates() {
  // Re-derive only the columns / cells / rows a dirty node sits in; cells
  // feed rows, so the grid's row pass runs after every dirty cell. The
  // dirty set is tiny (a pairwise swap touches two slots), so linear dedup
  // over reusable member buffers suffices — no allocation per solve.
  const auto insert_unique = [](std::vector<int>& list, int value) {
    for (int v : list) {
      if (v == value) return false;
    }
    list.push_back(value);
    return true;
  };
  dirty_cols_scratch_.clear();
  dirty_cells_scratch_.clear();
  dirty_rows_scratch_.clear();
  for (int id : dirty_nodes_) {
    const auto& node = nodes_[static_cast<std::size_t>(id)];
    if (insert_unique(dirty_cols_scratch_, node.col)) rederive_col(node.col);
    if (grid_) {
      const int cell = node_cell_[static_cast<std::size_t>(id)];
      if (insert_unique(dirty_cells_scratch_, cell)) rederive_cell(cell);
      insert_unique(dirty_rows_scratch_, node.row);
    }
  }
  for (int row : dirty_rows_scratch_) rederive_row(row);
}

void FloorplanSession::set_dims(int node_id, double w, double h) {
  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  if (node.w == w && node.h == h) return;  // aggregates cannot move
  const double old_w = node.w;
  const double old_h = node.h;
  node.w = w;
  node.h = h;

  // Column width: max over the column's present members. One element moved,
  // so the max only needs a rescan when the former maximum shrank; max is
  // exact arithmetic, so every branch lands on the value a full
  // re-derivation would produce.
  {
    auto& width = col_width_[static_cast<std::size_t>(node.col)];
    if (w >= width) {
      width = w;
    } else if (old_w >= width) {
      double rescan = 0.0;
      for (int id : col_members_[static_cast<std::size_t>(node.col)]) {
        const auto& member = nodes_[static_cast<std::size_t>(id)];
        if (member.present) rescan = std::max(rescan, member.w);
      }
      width = rescan;
    }
    // else: another member still holds the max — nothing moved.
  }

  if (grid_) {
    const int cell = node_cell_[static_cast<std::size_t>(node_id)];
    if (h != old_h) {
      double stack = 0.0;
      bool first = true;
      for (int id : cell_stack_[static_cast<std::size_t>(cell)]) {
        const auto& member = nodes_[static_cast<std::size_t>(id)];
        if (!member.present) continue;
        if (!first) stack += spacing_;
        stack += member.h;
        first = false;
      }
      auto& cell_h = cell_height_[static_cast<std::size_t>(cell)];
      if (stack != cell_h) {
        const double old_stack = cell_h;
        cell_h = stack;
        auto& row = row_height_[static_cast<std::size_t>(node.row)];
        if (stack >= row) {
          row = stack;
        } else if (old_stack >= row) {
          double rescan = 0.0;
          for (int other : row_cells_[static_cast<std::size_t>(node.row)]) {
            if (cell_present_[static_cast<std::size_t>(other)] > 0) {
              rescan = std::max(
                  rescan, cell_height_[static_cast<std::size_t>(other)]);
            }
          }
          row = rescan;
        }
      }
    }
  } else if (h != old_h) {
    double stack = 0.0;
    bool first = true;
    for (int id : col_stack_[static_cast<std::size_t>(node.col)]) {
      const auto& member = nodes_[static_cast<std::size_t>(id)];
      if (!member.present) continue;
      if (!first) stack += spacing_;
      stack += member.h;
      first = false;
    }
    col_height_[static_cast<std::size_t>(node.col)] = stack;
  }
}

void FloorplanSession::run_sizing_descent() {
  // Coordinate descent over the soft blocks in placement order. For each
  // item, everything except its own dimensions is frozen while its
  // candidates are tried, so the trial loop works against a precomputed
  // environment — the other members' column max, the stack fold up to the
  // item, the other cells' row max, and the chip-extent prefix folds — and
  // each trial re-solves only the item's own column/row constraint chains
  // plus the downstream prefix sums. Every fold replays the one-shot
  // layout's additions in its exact order (max re-association is exact),
  // so the chosen dims are bit-identical to re-deriving the whole layout
  // per trial. The working aggregate arrays are only patched when an
  // item's best candidate is committed.
  for (int pass = 0; pass < options_.sizing_passes; ++pass) {
    bool changed = false;
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      Node& node = nodes_[id];
      if (!node.present || !node.shape.soft) continue;
      const int col = node.col;

      // Widest other present member of the item's column.
      double col_others = 0.0;
      for (int m : col_members_[static_cast<std::size_t>(col)]) {
        if (m == static_cast<int>(id)) continue;
        const auto& member = nodes_[static_cast<std::size_t>(m)];
        if (member.present) col_others = std::max(col_others, member.w);
      }

      // Stack fold of the item's cell (grid) / column (columns mode) up to
      // the item, plus its position for the per-trial tail walk.
      const auto& stack =
          grid_ ? cell_stack_[static_cast<std::size_t>(
                      node_cell_[static_cast<std::size_t>(id)])]
                : col_stack_[static_cast<std::size_t>(col)];
      double stack_prefix = 0.0;
      bool stack_any = false;
      std::size_t pos = 0;
      for (; stack[pos] != static_cast<int>(id); ++pos) {
        const auto& member = nodes_[static_cast<std::size_t>(stack[pos])];
        if (!member.present) continue;
        if (stack_any) stack_prefix += spacing_;
        stack_prefix += member.h;
        stack_any = true;
      }

      // Row competition: the tallest other stack of the item's row band
      // (grid) / the tallest other column (columns mode, empty columns
      // contribute 0 exactly as the one-shot max over all columns does).
      double row_others = 0.0;
      if (grid_) {
        const int cell = node_cell_[static_cast<std::size_t>(id)];
        for (int other : row_cells_[static_cast<std::size_t>(node.row)]) {
          if (other == cell) continue;
          if (cell_present_[static_cast<std::size_t>(other)] > 0) {
            row_others = std::max(
                row_others, cell_height_[static_cast<std::size_t>(other)]);
          }
        }
      } else {
        for (int c = 0; c < ncols_; ++c) {
          if (c == col) continue;
          row_others =
              std::max(row_others, col_height_[static_cast<std::size_t>(c)]);
        }
      }

      // Chip-extent prefix folds up to the item's column/row.
      double width_prefix = 0.0;
      bool width_any = false;
      for (int c = 0; c < col; ++c) {
        if (col_present_[static_cast<std::size_t>(c)] == 0) continue;
        if (width_any) width_prefix += spacing_;
        width_prefix += col_width_[static_cast<std::size_t>(c)];
        width_any = true;
      }
      double height_prefix = 0.0;
      bool height_any = false;
      if (grid_) {
        for (int r = 0; r < node.row; ++r) {
          if (row_present_[static_cast<std::size_t>(r)] == 0) continue;
          if (height_any) height_prefix += spacing_;
          height_prefix += row_height_[static_cast<std::size_t>(r)];
          height_any = true;
        }
      }

      double best_area = std::numeric_limits<double>::infinity();
      double best_w = node.w;
      double best_h = node.h;
      const double start_w = node.w;
      const double start_h = node.h;
      const auto& candidate_dims =
          resolved_shapes_[static_cast<std::size_t>(node.resolved)]
              .candidate_dims;
      for (const auto& [w, h] : candidate_dims) {
        const double col_w = std::max(col_others, w);

        double stack_h = stack_prefix;
        if (stack_any) stack_h += spacing_;
        stack_h += h;
        for (std::size_t k = pos + 1; k < stack.size(); ++k) {
          const auto& member = nodes_[static_cast<std::size_t>(stack[k])];
          if (!member.present) continue;
          stack_h += spacing_;
          stack_h += member.h;
        }
        const double band_h = std::max(row_others, stack_h);

        double width = width_prefix;
        if (width_any) width += spacing_;
        width += col_w;
        for (int c = col + 1; c < ncols_; ++c) {
          if (col_present_[static_cast<std::size_t>(c)] == 0) continue;
          width += spacing_;
          width += col_width_[static_cast<std::size_t>(c)];
        }

        double height;
        if (grid_) {
          height = height_prefix;
          if (height_any) height += spacing_;
          height += band_h;
          for (int r = node.row + 1; r < nrows_; ++r) {
            if (row_present_[static_cast<std::size_t>(r)] == 0) continue;
            height += spacing_;
            height += row_height_[static_cast<std::size_t>(r)];
          }
        } else {
          height = band_h;
        }

        const double chip = width * height;
        if (chip < best_area - 1e-12) {
          best_area = chip;
          best_w = w;
          best_h = h;
        }
      }
      set_dims(static_cast<int>(id), best_w, best_h);
      if (best_w != start_w || best_h != start_h) changed = true;
    }
    // Fixed point: a pass that moved nothing replays bit-identically, so
    // the remaining passes are no-ops.
    if (!changed) break;
  }
}

Floorplan FloorplanSession::place_band() {
  // The longest-path positions over the final aggregates, with the exact
  // accumulation order of the one-shot band layout. Scratch buffers are
  // pre-sized members: only absent nodes' entries stay stale, and those are
  // never emitted.
  auto& col_x = col_x_scratch_;
  double x = 0.0;
  bool first_col = true;
  for (int c = 0; c < ncols_; ++c) {
    if (col_present_[static_cast<std::size_t>(c)] == 0) continue;
    if (!first_col) x += spacing_;
    first_col = false;
    col_x[static_cast<std::size_t>(c)] = x;
    x += col_width_[static_cast<std::size_t>(c)];
  }
  const double width = x;

  auto& pos = pos_scratch_;
  double height = 0.0;
  if (grid_) {
    auto& row_y = row_y_scratch_;
    double y = 0.0;
    bool first_row = true;
    for (int r = 0; r < nrows_; ++r) {
      if (row_present_[static_cast<std::size_t>(r)] == 0) continue;
      if (!first_row) y += spacing_;
      first_row = false;
      row_y[static_cast<std::size_t>(r)] = y;
      y += row_height_[static_cast<std::size_t>(r)];
    }
    height = y;

    for (std::size_t cell = 0; cell < cell_stack_.size(); ++cell) {
      if (cell_present_[cell] == 0) continue;
      const int row = static_cast<int>(cell) / ncols_;
      double cy = row_y[static_cast<std::size_t>(row)];
      for (int id : cell_stack_[cell]) {
        const auto& node = nodes_[static_cast<std::size_t>(id)];
        if (!node.present) continue;
        const double cx =
            col_x[static_cast<std::size_t>(node.col)] +
            (col_width_[static_cast<std::size_t>(node.col)] - node.w) / 2.0;
        pos[static_cast<std::size_t>(id)] = {cx, cy};
        cy += node.h + spacing_;
      }
    }
  } else {
    double max_height = 0.0;
    for (int c = 0; c < ncols_; ++c) {
      max_height = std::max(max_height, col_height_[static_cast<std::size_t>(c)]);
    }
    height = max_height;
    for (int c = 0; c < ncols_; ++c) {
      double cy =
          (max_height - col_height_[static_cast<std::size_t>(c)]) / 2.0;
      for (int id : col_stack_[static_cast<std::size_t>(c)]) {
        const auto& node = nodes_[static_cast<std::size_t>(id)];
        if (!node.present) continue;
        const double cx =
            col_x[static_cast<std::size_t>(c)] +
            (col_width_[static_cast<std::size_t>(c)] - node.w) / 2.0;
        pos[static_cast<std::size_t>(id)] = {cx, cy};
        cy += node.h + spacing_;
      }
    }
  }

  std::vector<PlacedBlock> blocks;
  blocks.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& node = nodes_[i];
    if (!node.present) continue;
    blocks.push_back(PlacedBlock{node.kind, node.index, pos[i].first,
                                 pos[i].second, node.w, node.h});
  }
  return Floorplan(std::move(blocks), width, height);
}

Floorplan FloorplanSession::place_simplex() const {
  std::vector<Floorplanner::Item> items;
  items.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    if (!node.present) continue;
    items.push_back(Floorplanner::Item{node.kind, node.index, node.row,
                                       node.col, node.sub, &node.shape, node.w,
                                       node.h});
  }
  return solve_simplex_lp(placement_, items, spacing_);
}

const Floorplan& FloorplanSession::solve() {
  if (solved_) {
    ++stats_.cached_solves;
    return last_;
  }
  ++stats_.solves;
  // A solve under open speculative frames patches (or fully re-derives) the
  // aggregates those frames journaled; mark them so pop_shapes() knows the
  // cached solve is stale and whether surgical restoration is still valid.
  for (std::size_t i = 0; i < journal_depth_; ++i) {
    journal_[i].solved_through = true;
    if (all_dirty_) journal_[i].solved_full = true;
  }
  if (all_dirty_) {
    rederive_all_init_aggregates();
    ++stats_.full_solves;
  } else {
    patch_init_aggregates();
    ++stats_.incremental_solves;
  }
  all_dirty_ = false;
  dirty_nodes_.clear();

  // Working state for this assignment: sizing starts every present block
  // from its stage-1 dimensions, exactly like a one-shot solve.
  for (auto& node : nodes_) {
    node.w = node.init_w;
    node.h = node.init_h;
  }
  col_width_ = init_col_width_;
  if (grid_) {
    cell_height_ = init_cell_height_;
    row_height_ = init_row_height_;
  } else {
    col_height_ = init_col_height_;
  }
  if (options_.sizing_passes > 0) run_sizing_descent();

  last_ = options_.engine == Floorplanner::Engine::kSimplexLp
              ? place_simplex()
              : place_band();
  solved_ = true;
  return last_;
}

}  // namespace sunmap::fplan
