#pragma once

#include <cstddef>
#include <string>

namespace sunmap::sweep {

/// How long the daemon waits, from accepting a connection, for the whole
/// request before it answers ERR and moves on to the next client.
inline constexpr int kRequestDeadlineMs = 2000;
/// Longest request the daemon reads; a longer one is answered with ERR.
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;

/// Persistent sweep service over a unix-domain stream socket. The daemon
/// keeps one evaluation-context pool per (application, library) pair alive
/// across every request it serves, so repeat sweeps over the same topology
/// library skip per-topology context construction entirely (they rebind —
/// see select::ExplorerContextPool and EvalContext::rebind).
///
/// Request protocol: newline-separated `key=value` lines terminated by a
/// blank line (or EOF), decoded by io::decode_request. One key per request
/// flag of sunmap_cli; `app` is required:
///
///   app=<vopd|mpeg4|dsp|netproc16|pip|mwd>   extensions=0|1
///   objectives=delay,area,power,weighted      routings=DO,MP,SM,SA
///   bandwidths=<MBps,...>  areas=<mm2,...>     threads=<n>
///   searches=greedy,sa,rsa restarts=<n,...>    swap_passes=<n,...>
///   reheat=<n>  fplan_engine=lp,simplex        fplan_sizing_passes=<n,...>
///   faults=<none|n1|rand[M],...> or one explicit list "a-b,c-d,sN/..."
///   fault_samples=<n>  fault_seed=<s>  fault_mode=worst|weighted
///   fault_penalty=<x>  w_delay=<x>  w_area=<x>  w_power=<x>
///   sim_finalists=<n>  sim_validate=0|1  sim_rank=0|1  sim_seed=<s>
///   sim_traffic=trace|bursty  sim_burst_len=<c>  sim_burst_duty=<d>
///
/// sim_validate=1 scores every feasible cell; sim_rank=1 with no finalist
/// count re-ranks the top 3 of each objective group. fault_samples and
/// fault_seed need a rand fault set to shape. threads is in
/// [1, select::kMaxThreads].
/// An unknown or repeated key, or a bad value, is answered with an error
/// naming it. A client must send its whole request within
/// kRequestDeadlineMs of being accepted, and at most kMaxRequestBytes.
///
/// Response: `OK <byte count>\n` followed by exactly that many bytes of
/// io::exploration_report_json, or `ERR <message>\n`.
struct DaemonOptions {
  std::string socket_path;
  /// Return after serving this many requests; -1 serves until
  /// request_stop() (the CLI wires that to SIGINT). Exact at any
  /// accept_threads count: each accepted connection consumes one ticket of
  /// the budget before it is handled.
  int max_requests = -1;
  /// Accept-loop worker threads. Each worker accepts, parses, and serves
  /// whole requests; a context pool is locked per (app, library) pair, so
  /// concurrent requests over DIFFERENT pairs evaluate in parallel while
  /// requests sharing a pool serialize on its entry (the contexts are not
  /// shareable mid-explore). In [1, select::kMaxThreads]; serve() refuses
  /// any other count before it opens the socket. 1 — the default —
  /// reproduces the original single-threaded loop.
  int accept_threads = 1;
  /// Log one stderr line per request.
  bool verbose = false;
};

struct DaemonStats {
  int requests_served = 0;
  int requests_failed = 0;
};

/// Runs the daemon loop; returns when max_requests were served or
/// request_stop() was raised. Throws std::runtime_error when the socket
/// cannot be created or bound. The socket file is unlinked on return.
DaemonStats serve(const DaemonOptions& options);

/// Client side: connects to a daemon socket, submits one request (a blank
/// terminator line is appended if missing) and returns the JSON report
/// body. Throws std::runtime_error on connection failure or an ERR
/// response.
[[nodiscard]] std::string call_daemon(const std::string& socket_path,
                                      const std::string& request_text);

}  // namespace sunmap::sweep
