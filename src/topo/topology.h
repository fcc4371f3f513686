#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/paths.h"

namespace sunmap::topo {

using graph::EdgeId;
using graph::NodeId;

/// Index of a core attachment point ("slot") on a topology. The mapping
/// function of the paper (Definition: map &#58; V -> U) assigns each core of the
/// application to one slot; |V| <= |U| must hold.
using SlotId = int;

/// The standard topologies in the SUNMAP library (paper §1/§4) plus the two
/// extension topologies the paper calls out as easy additions (octagon [6]
/// and star [10]).
enum class TopologyKind {
  kMesh,
  kTorus,
  kHypercube,
  kClos,
  kButterfly,
  kOctagon,
  kStar,
  kCustom,  ///< User-defined heterogeneous topology (topo/custom.h).
};

/// Relative block placement used by the floorplanner (§5: "for a particular
/// mapping ... the relative positions of the cores and switches are known").
///
/// Two layout modes:
///  * kGrid    — direct topologies: switches live on a row x col grid and
///               each slot's core block is stacked with its switch in the
///               same cell (sub 0 = core, sub 1 = switch).
///  * kColumns — indirect topologies: vertical columns of blocks; cores on
///               the outer columns, switch stages in between (cf. the
///               butterfly floorplan of Fig 10(b)).
struct RelativePlacement {
  enum class Mode { kGrid, kColumns };
  struct Item {
    enum class Kind { kCore, kSwitch };
    Kind kind = Kind::kSwitch;
    int index = 0;  ///< SlotId for cores, switch NodeId for switches.
    int row = 0;    ///< Grid row / position within column.
    int col = 0;    ///< Grid column / column index.
    int sub = 0;    ///< Stacking order within a grid cell.
  };
  Mode mode = Mode::kGrid;
  int num_rows = 0;
  int num_cols = 0;
  std::vector<Item> items;
};

/// Abstract NoC topology: the NoC topology graph P(U,F) of Definition 2 plus
/// everything SUNMAP needs around it — core attachment points, per-topology
/// quadrant graphs (§4.3), dimension-ordered routes, switch port counts for
/// the area/power models, and a relative placement for the floorplanner.
///
/// The switch graph is directed. Direct topologies (mesh/torus/hypercube/
/// octagon/star) model each bidirectional physical channel as two directed
/// edges; indirect topologies (clos/butterfly) are inherently unidirectional
/// left-to-right. Every slot has an ingress switch (where its core injects)
/// and an egress switch (where traffic addressed to it is delivered); the two
/// coincide for direct topologies.
class Topology {
 public:
  virtual ~Topology() = default;

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] TopologyKind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// The NoC topology graph over switches.
  [[nodiscard]] const graph::DirectedGraph& switch_graph() const {
    return graph_;
  }
  [[nodiscard]] int num_switches() const { return graph_.num_nodes(); }
  [[nodiscard]] int num_slots() const {
    return static_cast<int>(ingress_.size());
  }

  /// Switch into which the core in slot s injects traffic.
  [[nodiscard]] NodeId ingress_switch(SlotId s) const {
    return ingress_.at(static_cast<std::size_t>(s));
  }
  /// Switch from which traffic addressed to slot s is delivered.
  [[nodiscard]] NodeId egress_switch(SlotId s) const {
    return egress_.at(static_cast<std::size_t>(s));
  }

  /// True when each slot's ingress and egress switch coincide (one core per
  /// switch — Fig 1); false for the multistage networks of Fig 2.
  [[nodiscard]] bool is_direct() const { return direct_; }

  /// Number of input ports of a switch, network links plus attached cores.
  /// Feeds the crossbar/buffer area model (a mesh-interior switch is 5x5).
  [[nodiscard]] int switch_in_ports(NodeId sw) const;
  /// Number of output ports of a switch, network links plus attached cores.
  [[nodiscard]] int switch_out_ports(NodeId sw) const;
  /// max(in_ports, out_ports) — the radix used for the area/power library.
  [[nodiscard]] int switch_radix(NodeId sw) const;

  /// Physical switch-to-switch channel count: bidirectional channel pairs of
  /// direct topologies count once, unidirectional stage links count once.
  [[nodiscard]] int num_network_links() const;
  /// Core-to-switch attachment link count (ingress + distinct egress).
  [[nodiscard]] int num_core_links() const;

  /// Switches traversed on a minimum path from slot a's core to slot b's
  /// core (graph hop distance + 1, so adjacent mesh nodes = 2, butterfly
  /// with n stages = n, clos = 3). This is the paper's "hop delay" metric.
  [[nodiscard]] int min_switch_hops(SlotId a, SlotId b) const;

  /// Quadrant graph of §4.3 for a commodity from slot src to slot dst: the
  /// switches that can lie on a minimum path. The base implementation is the
  /// generic closure {u : d(s,u) + d(u,t) == d(s,t)}; mesh/torus/hypercube
  /// override it with the paper's structural constructions (bounding box,
  /// minimal wrap box, matched-digit subcube) which must agree with the
  /// closure (verified by property tests).
  [[nodiscard]] virtual std::vector<NodeId> quadrant_nodes(SlotId src,
                                                           SlotId dst) const;

  /// Memoized byte-mask form of quadrant_nodes(): mask[u] != 0 iff switch u
  /// lies on a minimum path for the (src, dst) slot pair (src != dst).
  /// Computed on first use and cached for the lifetime of the topology, so
  /// repeated routing over the same topology — the mapper's inner loop —
  /// stops recomputing quadrant sets. Thread-safe; the returned reference
  /// stays valid and immutable once filled.
  [[nodiscard]] const std::vector<char>& quadrant_mask(SlotId src,
                                                       SlotId dst) const;

  /// Dimension-ordered (deterministic, oblivious) route as a switch
  /// sequence from ingress_switch(src) to egress_switch(dst).
  [[nodiscard]] virtual std::vector<NodeId> dimension_ordered_path(
      SlotId src, SlotId dst) const = 0;

  /// Relative placement of slot core blocks and switch blocks for the
  /// floorplanner.
  [[nodiscard]] virtual RelativePlacement relative_placement() const = 0;

  /// Converts a switch node sequence into a Path (filling edge ids); throws
  /// std::logic_error if consecutive switches are not linked.
  [[nodiscard]] graph::Path make_path(const std::vector<NodeId>& nodes) const;

 protected:
  Topology(TopologyKind kind, std::string name, bool direct)
      : kind_(kind), name_(std::move(name)), direct_(direct) {}

  /// Must be called by subclass constructors once graph_/ingress_/egress_
  /// are populated; validates the invariants and precomputes hop distances.
  void finalize();

  graph::DirectedGraph graph_;
  std::vector<NodeId> ingress_;
  std::vector<NodeId> egress_;

 private:
  TopologyKind kind_;
  std::string name_;
  bool direct_;
  std::vector<std::vector<int>> hops_;  // all-pairs switch-graph distances
  std::vector<int> slots_in_at_;        // #slots whose ingress is this switch
  std::vector<int> slots_out_at_;       // #slots whose egress is this switch

  // Lazily-filled quadrant_mask() cache, indexed src * num_slots + dst. The
  // outer vector is sized once in finalize() and never resized, so a filled
  // entry can be handed out by reference without holding the mutex.
  mutable std::mutex quadrant_mutex_;
  mutable std::vector<std::vector<char>> quadrant_mask_cache_;
};

}  // namespace sunmap::topo
