#include "mapping/core_graph.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace sunmap::mapping {

namespace {

/// Throws unless `value` is finite and positive, naming what it is and the
/// value itself.
void require_positive(double value, const std::string& what) {
  if (std::isfinite(value) && value > 0.0) return;
  std::ostringstream message;
  message << "CoreGraph: " << what << " must be finite and positive, got "
          << value;
  throw std::invalid_argument(message.str());
}

}  // namespace

CoreGraph::CoreGraph(std::string name) : name_(std::move(name)) {}

int CoreGraph::add_core(std::string name, fplan::BlockShape shape) {
  for (const auto& c : cores_) {
    if (c.name == name) {
      throw std::invalid_argument("CoreGraph: duplicate core name " + name);
    }
  }
  const std::string what = "core " + name;
  if (shape.soft) {
    require_positive(shape.area_mm2, what + " area");
  } else {
    require_positive(shape.width_mm, what + " width");
    require_positive(shape.height_mm, what + " height");
    require_positive(shape.area_mm2, what + " area");
  }
  require_positive(shape.min_aspect, what + " min aspect");
  require_positive(shape.max_aspect, what + " max aspect");
  if (shape.max_aspect < shape.min_aspect) {
    throw std::invalid_argument("CoreGraph: " + what +
                                " has an inverted aspect range");
  }
  cores_.push_back(Core{std::move(name), shape});
  return graph_.add_node();
}

int CoreGraph::add_core(std::string name, double area_mm2) {
  return add_core(std::move(name), fplan::BlockShape::soft_block(area_mm2));
}

void CoreGraph::add_flow(int src_core, int dst_core, double bandwidth_mbps) {
  require_positive(bandwidth_mbps, "flow bandwidth");
  if (graph_.has_edge(src_core, dst_core)) {
    throw std::invalid_argument("CoreGraph: duplicate flow");
  }
  graph_.add_edge(src_core, dst_core, bandwidth_mbps);
}

int CoreGraph::core_index(std::string_view name) const {
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i].name == name) return static_cast<int>(i);
  }
  throw std::out_of_range("CoreGraph: no core named " + std::string(name));
}

double CoreGraph::total_core_area_mm2() const {
  double area = 0.0;
  for (const auto& c : cores_) area += c.shape.area_mm2;
  return area;
}

double CoreGraph::core_traffic_mbps(int index) const {
  double total = 0.0;
  for (graph::EdgeId e : graph_.out_edges(index)) {
    total += graph_.edge(e).weight;
  }
  for (graph::EdgeId e : graph_.in_edges(index)) {
    total += graph_.edge(e).weight;
  }
  return total;
}

std::vector<Commodity> commodities_by_value(const CoreGraph& app) {
  std::vector<Commodity> commodities;
  commodities.reserve(static_cast<std::size_t>(app.num_flows()));
  for (const auto& e : app.graph().edges()) {
    commodities.push_back(Commodity{e.src, e.dst, e.weight});
  }
  std::sort(commodities.begin(), commodities.end(),
            [](const Commodity& a, const Commodity& b) {
              if (a.value_mbps != b.value_mbps) {
                return a.value_mbps > b.value_mbps;
              }
              if (a.src_core != b.src_core) return a.src_core < b.src_core;
              return a.dst_core < b.dst_core;
            });
  return commodities;
}

}  // namespace sunmap::mapping
