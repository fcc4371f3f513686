#!/usr/bin/env python3
"""Markdown delta summary between a fresh probe JSON and its baseline.

Used by the refresh-baselines CI job to surface what a merge just did to
the tracked benchmarks in the GitHub job summary, before the fresh numbers
overwrite the committed baselines:

  bench_delta_summary.py --current BENCH_search_strategies.json \\
      --baseline bench/baselines/BENCH_search_strategies.json \\
      >> "$GITHUB_STEP_SUMMARY"

Every probe writes the same shape (bench/probe.h), so one renderer serves
them all: wall_ms and every sub-benchmark with old/new/delta, every
invariant and metric with old/new, and every table as recorded by the fresh
run. A missing baseline renders as "new" rows instead of failing — this is
a reporting tool; the hard gate is check_bench_regression.py.
"""

import argparse
import json
import sys


def cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def delta(current, baseline) -> str:
    if baseline is None:
        return "new"
    if isinstance(baseline, bool) or not baseline:
        return ""
    return f"{100.0 * (current / baseline - 1.0):+.0f}%"


def table(header, rows) -> None:
    if not rows:
        return
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", required=True)
    args = parser.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        baseline = {}

    name = current["benchmark"]
    print(f"### {name} baseline refresh\n")
    timings = [(f"{name} (total)", current["wall_ms"],
                baseline.get("wall_ms"))]
    old_subs = baseline.get("sub_benchmarks", {})
    timings += [(sub, ms, old_subs.get(sub))
                for sub, ms in current["sub_benchmarks"].items()]
    table(["benchmark", "baseline ms", "fresh ms", "delta"],
          [[label, cell(old), cell(new), delta(new, old)]
           for label, new, old in timings])

    old_invariants = baseline.get("invariants", {})
    table(["invariant", "baseline", "fresh", ""],
          [[key, cell(old_invariants.get(key)), cell(new),
            "" if old_invariants.get(key) == new else "⚠️"]
           for key, new in current["invariants"].items()])
    old_metrics = baseline.get("metrics", {})
    table(["metric", "baseline", "fresh", "delta"],
          [[key, cell(old_metrics.get(key)), cell(new),
            delta(new, old_metrics.get(key))]
           for key, new in current["metrics"].items()])

    for title, rows in current["tables"].items():
        columns = list(dict.fromkeys(key for row in rows for key in row))
        print(f"**{title}**\n")
        table(columns, [[cell(row.get(key)) for key in columns]
                        for row in rows])
    return 0


if __name__ == "__main__":
    sys.exit(main())
