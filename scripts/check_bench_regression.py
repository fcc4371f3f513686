#!/usr/bin/env python3
"""Cross-PR regression gate for the benchmark probes.

Every probe writes one JSON shape (bench/probe.h): benchmark, wall_ms,
invariants, metrics, sub_benchmarks and tables. The gate reads that shape
with no per-probe knowledge and fails (exit 1) when, for any
current/baseline pair:

  * the "benchmark" names differ;
  * an invariant is missing on either side, or differs from the baseline
    (booleans compare as booleans, numbers exactly, digests as strings);
  * a boolean invariant is false;
  * a sub-benchmark is measured on one side only;
  * wall_ms or a sub-benchmark is more than --max-slowdown times its
    baseline.

Metrics and tables are informational. The committed baselines are recorded
on the development container; CI runners differ in absolute speed, which is
why the timing gate is a generous ratio rather than a tight budget — it
exists to catch order-of-magnitude regressions (a disabled cache, an
accidentally quadratic loop), not scheduling noise.

Usage (pairs are matched positionally):
  check_bench_regression.py \\
      --current BENCH_mapping_scaling.json \\
      --baseline bench/baselines/BENCH_mapping_scaling.json \\
      [--current ... --baseline ...] [--max-slowdown 2.0]
"""

import argparse
import json
import sys


def same(current, baseline) -> bool:
    # True == 1 in Python; a boolean must stay a boolean.
    return (isinstance(current, bool) == isinstance(baseline, bool)
            and current == baseline)


def check_pair(current_path: str, baseline_path: str,
               max_slowdown: float) -> bool:
    with open(current_path) as f:
        current = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    name = current["benchmark"]
    if name != baseline["benchmark"]:
        print(f"FAIL: benchmark name mismatch: {current_path} is {name!r} "
              f"but {baseline_path} is {baseline['benchmark']!r}")
        return False

    ok = True
    invariants = current["invariants"]
    baseline_invariants = baseline["invariants"]
    for key in sorted(baseline_invariants.keys() - invariants.keys()):
        print(f"FAIL: {name}: invariant {key} is missing from {current_path}")
        ok = False
    for key in sorted(invariants.keys() - baseline_invariants.keys()):
        print(f"FAIL: {name}: invariant {key} has no baseline in "
              f"{baseline_path} — refresh the committed baselines")
        ok = False
    for key, value in invariants.items():
        if value is False:
            print(f"FAIL: {name}: invariant {key} is false")
            ok = False
        elif (key in baseline_invariants
              and not same(value, baseline_invariants[key])):
            print(f"FAIL: {name}: invariant {key} drifted: baseline "
                  f"{baseline_invariants[key]!r} vs current {value!r}")
            ok = False

    def gate(label: str, current_ms: float, baseline_ms: float) -> bool:
        if baseline_ms <= 0:
            print(f"FAIL: {label}: baseline is {baseline_ms} ms; nothing to "
                  f"compare")
            return False
        ratio = current_ms / baseline_ms
        print(f"{label}: current {current_ms:.1f} ms vs baseline "
              f"{baseline_ms:.1f} ms (ratio {ratio:.2f}, "
              f"limit {max_slowdown:.2f})")
        if ratio > max_slowdown:
            print(f"FAIL: {label} slowed beyond the regression limit")
            return False
        return True

    ok &= gate(name, float(current["wall_ms"]), float(baseline["wall_ms"]))
    subs = current["sub_benchmarks"]
    baseline_subs = baseline["sub_benchmarks"]
    for sub in sorted(subs.keys() ^ baseline_subs.keys()):
        side = current_path if sub in subs else baseline_path
        print(f"FAIL: {name}/{sub} is measured only in {side}")
        ok = False
    for sub, ms in subs.items():
        if sub in baseline_subs:
            ok &= gate(f"{name}/{sub}", float(ms), float(baseline_subs[sub]))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--current", action="append", required=True,
                        help="probe JSON produced by this run (repeatable)")
    parser.add_argument("--baseline", action="append", required=True,
                        help="committed baseline JSON (repeatable, paired "
                             "positionally with --current)")
    parser.add_argument("--max-slowdown", type=float, default=2.0,
                        help="fail when current/baseline exceeds this ratio")
    args = parser.parse_args()

    if len(args.current) != len(args.baseline):
        print(f"FAIL: {len(args.current)} --current file(s) but "
              f"{len(args.baseline)} --baseline file(s)")
        return 1

    ok = True
    for current_path, baseline_path in zip(args.current, args.baseline):
        ok &= check_pair(current_path, baseline_path, args.max_slowdown)
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
