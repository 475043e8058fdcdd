#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workers 2 --workload ilp8_single \
        --seed 2003 --seconds 20 --trace 0

Run from the repository root. --trace 0 reports the end-to-end metrics
(host time, untraced); --trace 1 runs the traced pass and the per-layer
probes instead. Every metric is printed with its unit and sample count;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/NOTES.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Separate set-up-only processes per run; setup_s is the median over
# these and the timed process's own set-up.
SETUP_REPEATS = 4
# The whole run, build excluded, must end within this many seconds.
RUN_BUDGET_S = 170

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: simulator sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_driver", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench_driver"


def child_env():
    # The benchmark pins every input itself: no SMT_* knob (check mode,
    # job count, bench scale, cache budget) leaks in from the caller.
    return {k: v for k, v in os.environ.items() if not k.startswith("SMT_")}


def drive(driver, args, deadline, mode, extra=()):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workers", str(args.workers),
           "--mode", mode, *extra]
    if args.corrupt_identity:
        cmd.append("--corrupt-identity")
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()),
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="ilp8_single, adts_sweep or bal1_oracle")
    ap.add_argument("--seed", type=int, default=2003)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, required=True,
                    help="worker threads of the pooled workloads (fixed by "
                         "BENCHMARK.json's command)")
    ap.add_argument("--corrupt-identity", action="store_true",
                    help="corrupt every identity check (self-check of the "
                         "failure path; the run must then report failures)")
    args = ap.parse_args()

    driver = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        spans_dir = BUILD_DIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        spans_file = spans_dir / f"{args.workload}-{args.seed}.jsonl"
        res = drive(driver, args, deadline, "traced",
                    ("--spans-out", str(spans_file)))
        metrics = res["metrics"]
    else:
        setups = [drive(driver, args, deadline, "setup")["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        res = drive(driver, args, deadline, "timed")
        setups.append(res["setup_s"])
        metrics = res["metrics"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                              "samples": len(setups)}

    host = res["host"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"workers {args.workers}  trace {args.trace}")
    print(f"host {host['cpu']}  nproc {host['nproc']}  "
          f"loadavg_1m {host['loadavg_1m']:.2f}  git {host['git_sha']}  "
          f"utc {host['utc']}  host.ref_ns {host['ref_ns']:.4f}")
    print(f"stats digest {res['digest']}  simulated ipc {res['ipc']:.6f}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"failed_frac {failed / max(attempted, 1):.6f}  "
          f"({failed} of {attempted} units and checks)")
    for line in res["failures"][:20]:
        print(f"  FAILED: {line}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']:10s} n={m['samples']}")

    correct = failed == 0 and bool(res["digest"]) and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e}")
        sys.exit(3)
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log(f"failed: {e}")
        sys.exit(1)
