#pragma once

#include <cstdint>
#include <vector>

#include "route/routing.h"

namespace sunmap::route {

/// One commodity's endpoint slots under the current mapping.
struct CommodityEndpoints {
  topo::SlotId src = -1;
  topo::SlotId dst = -1;

  friend bool operator==(const CommodityEndpoints&,
                         const CommodityEndpoints&) = default;
};

/// The one owner of the adaptive routing loop on the evaluation path (the
/// load-dependent MP and split-all kinds; DO/SM read static route tables
/// and never touch a session), with transactional undo.
///
/// solve() routes every commodity in canonical (decreasing-bandwidth) order,
/// then runs `reroute_passes` rip-up rounds: each commodity's route is
/// removed, re-routed against everyone else's load and added back. The
/// session keeps the last solve's endpoints, final routes and final loads.
/// When no endpoint moved (a swap of two empty slots, or a re-evaluation of
/// the same mapping), solve() returns them without a single Dijkstra;
/// otherwise it runs the whole loop again. Every result is bit-identical to
/// the same loop run from scratch (Mapper::evaluate is the independent
/// oracle).
///
/// A speculative solve swaps the displaced state into a pooled undo frame;
/// pop() swaps it back and commit() releases every open frame. Frames nest,
/// and a destructive solve under open frames throws (protocol misuse). The
/// session is marked invalid before the loop starts, so a route that throws
/// mid-solve never leaves half-written state behind: the next solve
/// re-routes from scratch, and after a speculative throw pop() restores the
/// previous state.
class RoutingSession {
 public:
  struct Stats {
    std::int64_t solves = 0;           ///< solve() calls
    std::int64_t full_solves = 0;      ///< solves that ran the routing loop
    std::int64_t snapshot_solves = 0;  ///< same-endpoint returns
    std::int64_t rerouted = 0;         ///< Dijkstra-backed (pass, k) steps
    std::int64_t reused = 0;           ///< (pass, k) steps a return skipped
  };

  RoutingSession() = default;

  /// (Re)binds the session to a commodity list: demands[k] is commodity k's
  /// bandwidth in canonical order. Drops the stored result and open frames;
  /// the statistics carry on.
  void reset(std::vector<double> demands, int reroute_passes);

  /// True once a solve has stored a complete result.
  [[nodiscard]] bool valid() const { return state_.valid; }
  [[nodiscard]] int num_commodities() const {
    return static_cast<int>(demands_.size());
  }
  [[nodiscard]] int reroute_passes() const { return passes_; }
  [[nodiscard]] int open_frames() const { return frame_depth_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Routes every commodity through `engine` for the endpoint assignment
  /// `endpoints`, writing the final link loads into `loads` (cleared first;
  /// the caller sizes it to the engine's switch graph). With `speculative`,
  /// the displaced state moves into a new undo frame; otherwise the result
  /// destructively replaces it (throws std::logic_error if frames are open).
  void solve(const RoutingEngine& engine,
             const std::vector<CommodityEndpoints>& endpoints, LoadMap& loads,
             bool speculative);

  /// Final route of commodity k after the most recent solve. The reference
  /// is invalidated by the next solve/pop/reset.
  [[nodiscard]] const RouteSet& route(int k) const {
    return state_.routes[static_cast<std::size_t>(k)];
  }

  /// Pops the newest undo frame, restoring the state its solve displaced.
  /// Throws std::logic_error when no frame is open.
  void pop();

  /// Keeps the current state and releases every open frame.
  void commit() { frame_depth_ = 0; }

 private:
  struct State {
    bool valid = false;
    std::vector<CommodityEndpoints> endpoints;
    std::vector<RouteSet> routes;
    LoadMap loads{0};
  };
  // A same-endpoint speculative solve displaces nothing; its frame only
  // keeps pop() and commit() balanced. Frames (and the route buffers of the
  // states they held) are pooled, so speculate/pop churn allocates nothing.
  struct Frame {
    State displaced;
    bool holds_state = false;
  };

  int passes_ = 0;
  std::vector<double> demands_;
  State state_;
  std::vector<Frame> frames_;  ///< pooled; the first frame_depth_ are open
  int frame_depth_ = 0;
  Stats stats_;
};

}  // namespace sunmap::route
