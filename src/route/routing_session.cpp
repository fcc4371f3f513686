#include "route/routing_session.h"

#include <stdexcept>
#include <utility>

namespace sunmap::route {

void RoutingSession::reset(std::vector<double> demands, int reroute_passes) {
  demands_ = std::move(demands);
  passes_ = reroute_passes;
  state_.valid = false;
  state_.endpoints.clear();
  state_.routes.assign(demands_.size(), RouteSet{});
  frame_depth_ = 0;
}

void RoutingSession::solve(const RoutingEngine& engine,
                           const std::vector<CommodityEndpoints>& endpoints,
                           LoadMap& loads, bool speculative) {
  const int n = num_commodities();
  if (static_cast<int>(endpoints.size()) != n) {
    throw std::invalid_argument(
        "RoutingSession: endpoint count does not match the bound demands");
  }
  if (!speculative && frame_depth_ > 0) {
    throw std::logic_error(
        "RoutingSession: destructive solve under open frames; commit or pop "
        "first");
  }
  ++stats_.solves;

  Frame* frame = nullptr;
  if (speculative) {
    if (frame_depth_ == static_cast<int>(frames_.size())) {
      frames_.emplace_back();
    }
    frame = &frames_[static_cast<std::size_t>(frame_depth_++)];
    frame->holds_state = false;
  }

  // No endpoint moved: the loop would recompute exactly the stored result.
  const int num_edges = engine.topology().switch_graph().num_edges();
  if (state_.valid && state_.endpoints == endpoints &&
      state_.loads.num_edges() == num_edges) {
    ++stats_.snapshot_solves;
    stats_.reused += static_cast<std::int64_t>(passes_ + 1) * n;
    loads = state_.loads;
    return;
  }

  ++stats_.full_solves;
  if (frame != nullptr) {
    // The frame's pooled buffers become the working state.
    std::swap(frame->displaced, state_);
    frame->holds_state = true;
  }
  state_.valid = false;
  std::vector<RouteSet>& routes = state_.routes;
  routes.resize(static_cast<std::size_t>(n));

  // The canonical loop: the decreasing-value pass, then the rip-up rounds.
  loads.clear();
  for (int pass = 0; pass <= passes_; ++pass) {
    for (std::size_t k = 0; k < routes.size(); ++k) {
      const CommodityEndpoints& key = endpoints[k];
      if (pass > 0) loads.remove_route(routes[k], demands_[k]);
      ++stats_.rerouted;
      engine.route(key.src, key.dst, demands_[k], loads, routes[k]);
      loads.add_route(routes[k], demands_[k]);
    }
  }

  state_.endpoints = endpoints;
  state_.loads = loads;
  state_.valid = true;
}

void RoutingSession::pop() {
  if (frame_depth_ <= 0) {
    throw std::logic_error("RoutingSession: pop without an open frame");
  }
  Frame& frame = frames_[static_cast<std::size_t>(--frame_depth_)];
  // Swap (not move) so the discarded speculation's buffers stay pooled.
  if (frame.holds_state) std::swap(frame.displaced, state_);
}

}  // namespace sunmap::route
