#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds 2]

For every workload in BENCHMARK.json it asserts that
  * the untraced run reports every end_to_end metric, and the traced run
    every per_layer metric, each with the unit BENCHMARK.json names;
  * both runs are correct with zero failures on this commit;
  * a run with every identity check deliberately corrupted reports
    failures (failed > 0, correct false), so the checks can fire.
Exits 0 when all hold and 1 otherwise.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(bench, workload, seconds, trace, *extra):
    cmd = [*bench["command"], "--workload", workload, "--seed", "2003",
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(bench, name, args.seconds, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if set(got) != set(want):
                problems.append(f"{name} trace={trace}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}")
            for k in set(got) & set(want):
                if got[k] != want[k]:
                    problems.append(f"{name}: {k} unit {got[k]!r} != {want[k]!r}")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{name} trace={trace}: failed {res['failed']} "
                                f"of {res['attempted']}")
        bad = run(bench, name, args.seconds, 0, "--corrupt-identity")
        if bad["failed"] == 0 or bad["correct"]:
            problems.append(f"{name}: corrupted identity checks went unnoticed")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"PROBLEM: {p}")
    print("selfcheck", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
