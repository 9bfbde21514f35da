#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the repository root; builds through run.py on first use and takes
about a minute.  Checks that

  * BENCHMARK.json names exactly the workloads and metrics the binary
    reports, with the same units and directions;
  * a seeded slowdown is caught: the default 1 ms constant latency model,
    wrapped in a host-side busy wait (--slowdown-ns), leaves every simulated
    output bit-identical, and compare.py flags ops_per_ref_s on pram-stream as
    a regression beyond its bound while the deterministic metrics read
    unchanged;
  * without the library sources the benchmark exits non-zero and prints no
    result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
sys.path.insert(0, str(HERE))
import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Deterministic per seed: the host never enters these numbers.
DETERMINISTIC = ["msgs_per_op", "wire_bytes_per_op", "exposure_ratio"]
SLOWDOWN_NS = 2000
SEEDS = [21, 22, 23]


def bench(workload, seed, seconds, *extra, cwd=ROOT):
    """Run the benchmark once; return (exit code, last stdout line)."""
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines[-1] if lines else ""


class SpecMatchesBinary(unittest.TestCase):
    def test_catalogue(self):
        code, line = bench("pram-stream", 1, 1, "--list")
        self.assertEqual(code, 0)
        listed = json.loads(line)
        self.assertEqual(listed["workloads"], SPEC["workloads"])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"], m["better"]) for m in listed[key]],
                [(m["name"], m["unit"], m["better"]) for m in SPEC[key]])


class SeededSlowdown(unittest.TestCase):
    def test_flagged_as_throughput_regression(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        base, slow = [], []
        for seed in SEEDS:
            for out, extra in ((base, []),
                               (slow, ["--slowdown-ns", str(SLOWDOWN_NS)])):
                code, line = bench("pram-stream", seed, 3, *extra)
                self.assertEqual(code, 0, line)
                out.append(json.loads(line))
                self.assertTrue(out[-1]["correct"])
        for b, s in zip(base, slow):
            for name in DETERMINISTIC:
                self.assertEqual(b["metrics"][name], s["metrics"][name], name)
        verdicts = {}
        for name, b, n, spread, verdict in compare.compare(base, slow, SPEC):
            print(f"  {name:20s} base {b:<12.6g} slowed {n:<12.6g} "
                  f"base-spread {spread:.4f} {verdict}", file=sys.stderr)
            verdicts[name] = verdict
        self.assertEqual(verdicts["ops_per_ref_s"], "REGRESSION")
        for name in DETERMINISTIC:
            self.assertEqual(verdicts[name], "ok", name)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            code, line = bench("pram-stream", 1, 1, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(line, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
