#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files of benchmark result lines (the JSON object
run.py prints last), one run per line, all of one workload and trace mode.
For every metric the script prints both medians, the base's spread
(interquartile distance over median) and a verdict:

  REGRESSION  the new median is worse than the base median by more than the
              metric's bound (a share of the base median)
  unresolved  the base spread is wider than the bound and the runs overlap
  ok          within the bound
  info        per-layer metric: no bound

Exits 1 if any metric regressed, 0 otherwise.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            obj = json.loads(line)
            if "metrics" in obj:
                runs.append(obj)
    if not runs:
        raise SystemExit(f"{path}: no result lines")
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def compare(base_runs, new_runs, spec):
    """Yield (name, base median, new median, base spread, verdict)."""
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name in base_runs[0]["metrics"]:
        base = [r["metrics"][name]["value"] for r in base_runs]
        new = [r["metrics"][name]["value"] for r in new_runs]
        b, n = statistics.median(base), statistics.median(new)
        d = defs[name]
        lower = d["better"] == "lower"
        if "bound" not in d:
            verdict = "info"
        else:
            limit = b * (1 + d["bound"]) if lower else b * (1 - d["bound"])
            worse = n > limit if lower else n < limit
            all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
            if worse:
                verdict = "REGRESSION"
            elif spread(base) > d["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
        yield name, b, n, spread(base), verdict


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    regressed = False
    for name, b, n, s, verdict in compare(load_results(argv[1]),
                                          load_results(argv[2]), spec):
        print(f"{name:32s} base {b:<14.6g} new {n:<14.6g} "
              f"base-spread {s:.4f}  {verdict}")
        regressed |= verdict == "REGRESSION"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
