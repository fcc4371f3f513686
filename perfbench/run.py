#!/usr/bin/env python3
"""End-to-end benchmark of the SUNMAP library.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark program (perfbench/sunbench.cpp) from
source into .bench_build (or $CARGO_TARGET_DIR when set), runs one workload
and prints, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. The line before it records the run's
provenance: seed, source digest, build type, nproc, host.ref_ms and the
digest of every checked output. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid", "robust", "serve")
BUILD_TYPE = "Release"


def source_digest(root):
    """sha1 over the library sources and the benchmark, in path order."""
    digest = hashlib.sha1()
    for top in ("src", os.path.relpath(HERE, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            ["cmake", "--build", build_dir, "--target", "sunbench", "-j", "3"],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                sys.stderr.write("perfbench: build failed; see %s\n" % log_path)
                return None
    return os.path.join(build_dir, "sunbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be >= 1")

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    binary = build(build_dir)
    if binary is None:
        return 1

    work_dir = os.path.relpath(build_dir, root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pinned", os.path.join(HERE, "pinned_digests.txt"),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % args.workload)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write("perfbench: sunbench exited with %d\n"
                         % proc.returncode)
        return 1
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "source_sha1": source_digest(root),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "passes": info["passes"],
        "host.ref_ms": info["host_ref_ms"],
        "digests": info["digests"],
    }
    print(json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
