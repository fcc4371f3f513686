#pragma once

// Shared helpers for the benchmark harnesses. Each bench binary regenerates
// one of the paper's tables/figures (printed before the google-benchmark
// timers run); README "CI: perf gating and baseline refresh" lists the perf
// probes among them.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "mapping/mapper.h"

namespace sunmap::bench {

inline void print_heading(const std::string& title) {
  std::printf("\n===== %s =====\n", title.c_str());
}

/// The experimental setup of §6.1: minimum-path routing, minimise delay,
/// 500 MB/s links ("The maximum link bandwidth for the NoCs is
/// conservatively assumed to be 500 MB/s").
inline mapping::MapperConfig video_config() {
  mapping::MapperConfig config;
  config.routing = route::RoutingKind::kMinPath;
  config.objective = mapping::Objective::kMinDelay;
  config.link_bandwidth_mbps = 500.0;
  return config;
}

/// Runs the registered google-benchmark timers after the tables printed.
inline int run_benchmarks(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace sunmap::bench
