#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

  python3 perfbench/spread.py --workload <name> [--first-seed 1]

Runs perfbench/run.py ten times, with seeds first-seed, first-seed + 1, ...,
for BENCHMARK.json's run_seconds, and prints, per end-to-end metric, the
median and the interquartile range over the median. A metric is steady when
that spread stays below a third of its bound. Seeds differ between runs, as
they do when the benchmark is accepted, so the spread covers both the
differences between inputs and run-to-run noise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values = {}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs were not correct")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}"
                                           for n, m in result["metrics"].items()),
              flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = stats.relative_spread(values[name])
        ok = spread < bound / 3
        steady = steady and ok
        print(f"{args.workload:18s} {name:18s} median {statistics.median(values[name]):12.6g} "
              f"spread {spread:6.3f} bound {bound:5.3f} {'ok' if ok else 'WIDE'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
