#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload adts_sweep --runs 10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json.
Raw results go to .bench_build/spread-<workload>-<trace>.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [*bench["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in
                         sorted(res["metrics"].items()) if k in bounds),
              flush=True)
    out_file = ROOT / ".bench_build" / f"spread-{args.workload}-{args.trace}.json"
    out_file.write_text(json.dumps(results, indent=1))

    worst = 0.0
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER BOUND" if spread > bound else (
                "  over bound/3" if spread > bound / 3 else "")
        print(f"{name:36s} median {med:12.5g}  iqr/median {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    print(f"all correct: {all(r['correct'] for r in results)}; worst "
          f"spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
