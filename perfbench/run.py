#!/usr/bin/env python3
"""Build and run the pardsm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
pardsm library from src/ plus the perfbench binary into
.bench_build/perfbench (Release); later calls rebuild incrementally.  Build
output goes to stderr, so the last line of stdout is the binary's JSON
result.  With --trace 1 the binary also writes its spans to
.bench_build/trace/<workload>.json, and this script merges every workload's
file into .bench_build/trace/all.json (one track per workload) for
Perfetto or about:tracing.

Exits non-zero without a result if the build fails, for instance when the
sources are missing.  Extra arguments (--slowdown-ns) go to the binary.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "trace"
BINARY = BUILD / "perfbench"


def build():
    """Configure (once) and build the binary; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def merge_traces():
    events = []
    for path in sorted(TRACE_DIR.glob("*.json")):
        if path.name == "all.json":
            continue
        with open(path) as f:
            events += json.load(f)["traceEvents"]
    with open(TRACE_DIR / "all.json", "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = parser.parse_known_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + extra
    trace_file = TRACE_DIR / f"{args.workload}.json"
    if args.trace == "1":
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    code = subprocess.run(cmd).returncode
    if code == 0 and args.trace == "1":
        merge_traces()
    return code


if __name__ == "__main__":
    sys.exit(main())
