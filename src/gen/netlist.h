#pragma once

#include <string>
#include <vector>

#include "fplan/floorplan.h"
#include "mapping/core_graph.h"
#include "topo/topology.h"

namespace sunmap::gen {

/// Instantiated switch of the chosen topology.
struct NetlistSwitch {
  int id = 0;  ///< Switch NodeId in the topology.
  std::string instance_name;
  int in_ports = 0;
  int out_ports = 0;
};

/// Switch-to-switch channel.
struct NetlistLink {
  int src_switch = 0;
  int dst_switch = 0;
  double length_mm = 0.0;  ///< 0 when no floorplan was supplied.
};

/// Network interface binding a core to its ingress/egress switches.
struct NetlistNi {
  int slot = 0;
  std::string core_name;
  int ingress_switch = 0;
  int egress_switch = 0;
};

/// Structural description of the selected NoC — the intermediate form the
/// generator (phase 3, the ×pipesCompiler substitute) renders into
/// SystemC-style source. Built from a topology plus a mapping; link lengths
/// are annotated from a floorplan when one is available.
class Netlist {
 public:
  /// `core_to_slot[i]` is the slot of core i (as produced by the mapper).
  static Netlist build(const topo::Topology& topology,
                       const mapping::CoreGraph& app,
                       const std::vector<int>& core_to_slot,
                       const fplan::Floorplan* floorplan = nullptr);

  [[nodiscard]] const std::string& design_name() const { return name_; }
  [[nodiscard]] const std::string& topology_name() const {
    return topology_name_;
  }
  [[nodiscard]] const std::vector<NetlistSwitch>& switches() const {
    return switches_;
  }
  [[nodiscard]] const std::vector<NetlistLink>& links() const {
    return links_;
  }
  [[nodiscard]] const std::vector<NetlistNi>& interfaces() const {
    return interfaces_;
  }

  /// Human-readable summary (switch/link/NI counts and bindings).
  [[nodiscard]] std::string summary() const;

 private:
  std::string name_;
  std::string topology_name_;
  std::vector<NetlistSwitch> switches_;
  std::vector<NetlistLink> links_;
  std::vector<NetlistNi> interfaces_;
};

/// Renders a Netlist as SystemC-style C++ source, standing in for the
/// ×pipes soft-macro instantiation of the paper (SystemC itself is not
/// available offline; the cycle-accurate executable model lives in
/// src/sim — see README "Stand-ins").
class SystemCWriter {
 public:
  struct Output {
    std::string header;  ///< Parameterised switch/NI module declarations.
    std::string top;     ///< Top-level instantiation and signal binding.
  };

  [[nodiscard]] Output emit(const Netlist& netlist) const;

  /// Writes <design>_noc.h and <design>_top.cpp into `directory` (which
  /// must exist). Returns the two file paths.
  std::vector<std::string> write_to(const Netlist& netlist,
                                    const std::string& directory) const;
};

}  // namespace sunmap::gen
