#pragma once

#include <optional>
#include <vector>

#include "fplan/floorplan.h"
#include "topo/topology.h"

namespace sunmap::fplan {

/// LP-based floorplanner of §5: given the relative block positions implied
/// by a topology and a mapping, it finds exact positions and sizes. The
/// general floorplanning problem's first step (finding relative positions)
/// is already solved — "for a particular mapping ... the relative positions
/// of the cores and switches are known" — so only the second step remains.
///
/// The solve is staged — item resolution, soft-block sizing, column/row
/// constraint-graph build, longest-path (or simplex) solve — and the stages
/// live in fplan::FloorplanSession (session.h), which keeps them alive
/// across a *sequence* of related solves and accepts shape deltas.
/// Floorplanner::place is the stateless one-shot entry point: it runs a
/// fresh session once, so its results are bit-identical to any session
/// reaching the same shape assignment through updates.
///
/// Two exact-position engines are provided:
///  * kLongestPath — column/row constraint-graph longest path; optimal for
///    the separable relative-position structure and fast enough to run on
///    every candidate mapping inside the pairwise-swap loop.
///  * kSimplexLp — the literal LP formulation (minimise W + H subject to
///    ordering and boundary constraints over non-negative positions),
///    solved with the from-scratch two-phase simplex in lp.h. Produces the
///    same chip dimensions as kLongestPath (asserted by tests); used for
///    final floorplans to mirror the paper's method.
///
/// Soft blocks are sized by discrete aspect-ratio coordinate descent before
/// positions are computed.
class Floorplanner {
 public:
  enum class Engine { kLongestPath, kSimplexLp };

  struct Options {
    Engine engine = Engine::kLongestPath;
    /// Coordinate-descent passes over all soft blocks.
    int sizing_passes = 2;
    /// Clearance inserted between neighbouring blocks (routing channels).
    double spacing_mm = 0.1;

    /// Memberwise equality — what EvalContext::rebind uses to decide
    /// whether the floorplan cache survives a config change, so it cannot
    /// drift from the fields.
    bool operator==(const Options&) const = default;
  };

  Floorplanner();
  explicit Floorplanner(Options options);

  /// Floorplans one mapped design.
  ///
  /// `core_shapes` is indexed by SlotId; a nullopt entry means the slot is
  /// unused (no core mapped there) and contributes no block. `switch_shapes`
  /// is indexed by switch NodeId and must cover every switch in the
  /// placement.
  [[nodiscard]] Floorplan place(
      const topo::RelativePlacement& placement,
      const std::vector<std::optional<BlockShape>>& core_shapes,
      const std::vector<BlockShape>& switch_shapes) const;

  [[nodiscard]] const Options& options() const { return options_; }

  /// A block with its relative grid coordinates and resolved dimensions —
  /// the unit the session's stages exchange.
  struct Item {
    PlacedBlock::Kind kind;
    int index;
    int row, col, sub;
    const BlockShape* shape;
    double w, h;  // resolved dimensions
  };

 private:
  Options options_;
};

/// Short stable engine names ("lp" for the longest-path band engine,
/// "simplex" for the literal simplex LP), shared by the CLI flags and the
/// exploration-report columns.
const char* to_string(Floorplanner::Engine engine);

}  // namespace sunmap::fplan
