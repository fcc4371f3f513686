#!/usr/bin/env python3
"""Bit-identity check between two exploration CSV reports.

Used by tests/request_paths_test.py: a single-process `sunmap_cli
--sweep` run and a `--workers N` run over the same grid must emit
identical reports — every scalar printed for every (point, topology)
cell, winner rows included — except for the shard/worker provenance
columns, which are empty in-process and populated in a distributed run.

  diff_sweep_reports.py single.csv distributed.csv

Exits 1 and prints the first differing rows when the reports diverge,
or when the distributed report carries no provenance at all (which would
mean the sweep silently ran in-process).
"""

import csv
import sys

PROVENANCE_COLUMNS = ("shard", "worker")


def load(path: str):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        print(f"FAIL: {path} is empty")
        sys.exit(1)
    return rows[0], rows[1:]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    single_path, distributed_path = sys.argv[1], sys.argv[2]
    single_header, single_rows = load(single_path)
    dist_header, dist_rows = load(distributed_path)

    if single_header != dist_header:
        print(f"FAIL: header mismatch:\n  {single_path}: {single_header}\n"
              f"  {distributed_path}: {dist_header}")
        return 1
    masked = [i for i, name in enumerate(single_header)
              if name in PROVENANCE_COLUMNS]
    if len(masked) != len(PROVENANCE_COLUMNS):
        print(f"FAIL: expected provenance columns {PROVENANCE_COLUMNS} "
              f"in the header, got {single_header}")
        return 1

    if len(single_rows) != len(dist_rows):
        print(f"FAIL: {single_path} has {len(single_rows)} rows but "
              f"{distributed_path} has {len(dist_rows)}")
        return 1

    def mask(row):
        return [cell for i, cell in enumerate(row) if i not in masked]

    ok = True
    for line, (s, d) in enumerate(zip(single_rows, dist_rows), start=2):
        if mask(s) != mask(d):
            print(f"FAIL: row {line} differs beyond provenance:\n"
                  f"  {single_path}: {s}\n  {distributed_path}: {d}")
            ok = False
            if line > 12:  # Enough to diagnose; don't flood the log.
                break

    populated = sum(1 for row in dist_rows
                    if any(row[i] for i in masked if i < len(row)))
    if populated == 0:
        print(f"FAIL: {distributed_path} has empty shard/worker columns "
              f"everywhere — the sweep did not run distributed")
        ok = False

    if ok:
        print(f"OK: {len(single_rows)} rows bit-identical "
              f"(provenance columns masked; {populated} rows carry "
              f"shard/worker provenance)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
