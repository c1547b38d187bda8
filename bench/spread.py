"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 bench/spread.py --workload segment_calib --seeds 0-9 [--seconds 35]

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between its first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.  Raw result lines go to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="inclusive range, e.g. 0-9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values, failed = {}, 0
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        line = out.stdout.strip().splitlines()[-1]
        print(line, file=sys.stderr, flush=True)
        result = json.loads(line)
        failed += result["failed"] + (not result["correct"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-14s %12s %8s %6s  (%s, %d runs, %d failed)" % ("metric", "median", "iqr/med", "bound", args.workload, len(args.seeds), failed))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("%-14s %12.4f %8.3f %6.2f" % (name, statistics.median(vals), (q3 - q1) / med, bounds[name]))


if __name__ == "__main__":
    main()
