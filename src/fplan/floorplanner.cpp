#include "fplan/floorplanner.h"

#include <utility>

#include "fplan/session.h"

namespace sunmap::fplan {

Floorplanner::Floorplanner() : options_{} {}

Floorplanner::Floorplanner(Options options) : options_(std::move(options)) {}

Floorplan Floorplanner::place(
    const topo::RelativePlacement& placement,
    const std::vector<std::optional<BlockShape>>& core_shapes,
    const std::vector<BlockShape>& switch_shapes) const {
  // A one-shot place is a session solved once with its construction-time
  // shapes: the same code every session solve runs, which is what makes
  // session results bit-identical to from-scratch ones.
  FloorplanSession session(options_, placement, core_shapes, switch_shapes);
  return session.solve();
}

const char* to_string(Floorplanner::Engine engine) {
  switch (engine) {
    case Floorplanner::Engine::kLongestPath:
      return "lp";
    case Floorplanner::Engine::kSimplexLp:
      return "simplex";
  }
  return "?";
}

}  // namespace sunmap::fplan
