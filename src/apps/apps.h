#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mapping/core_graph.h"

namespace sunmap::apps {

/// The benchmark applications of §6, encoded from the published core graphs.
/// Bandwidths are MB/s as annotated in the paper's figures; core areas are
/// plausible 0.1 µm block sizes chosen so the floorplanned design areas land
/// in the ranges the paper reports (the paper takes core area/power values
/// as tool inputs and does not list them). See README "Stand-ins".

/// Video Object Plane Decoder, 12 cores (Fig 3(a)); the motivating example
/// and the subject of Figs 3(d) and 6. Total traffic ~3.5 GB/s with a
/// dominant pipeline vld -> run-length decode -> inverse scan -> AC/DC
/// prediction -> iquant -> idct -> upsampling -> VOP reconstruction.
mapping::CoreGraph vopd();

/// MPEG4 decoder, 12 cores around a shared SDRAM (Fig 7(a)); the SDRAM
/// edges (910/670/600 MB/s) exceed a 500 MB/s link, which is why only
/// split-traffic routing produces feasible mappings (§6.1, Fig 9(a)).
mapping::CoreGraph mpeg4();

/// Six-core DSP filter (Fig 10(a)): ARM + memory + display control path at
/// 200 MB/s and an FFT -> filter -> IFFT data path at 600 MB/s.
mapping::CoreGraph dsp_filter();

/// 16-node network processor (§6.2, Fig 8). The paper drives this design
/// with traffic generators and relaxes bandwidth constraints for the
/// mapping; this core graph mirrors that with a uniform communication
/// pattern (ring + mid-range + across flows per node).
mapping::CoreGraph netproc16();

/// Picture-in-picture application, 8 cores — a standard companion workload
/// in the NoC mapping literature (same family as VOPD/MPEG4), with two
/// scaler pipelines joining in a shared memory. Useful as an octagon-sized
/// benchmark.
mapping::CoreGraph pip();

/// Multi-window display application, 12 cores — another standard workload
/// from the same literature, a noise-reduction + scaling pipeline with
/// three memories and a blender.
mapping::CoreGraph mwd();

/// The built-in benchmark a command line or daemon request names: vopd,
/// mpeg4, dsp (dsp_filter), netproc16, pip or mwd; nullopt for any other
/// name.
std::optional<mapping::CoreGraph> by_name(const std::string& name);

/// Parameters for the synthetic workload generator.
struct SyntheticSpec {
  int num_cores = 16;
  /// Expected fraction of ordered core pairs connected by a flow.
  double edge_density = 0.2;
  double min_bandwidth_mbps = 10.0;
  double max_bandwidth_mbps = 500.0;
  double min_core_area_mm2 = 2.0;
  double max_core_area_mm2 = 6.0;
  std::uint64_t seed = 1;
};

/// Deterministic random core graph (TGFF-style) used by property tests and
/// the scaling benchmark. The generated graph is always weakly connected.
mapping::CoreGraph synthetic(const SyntheticSpec& spec);

}  // namespace sunmap::apps
