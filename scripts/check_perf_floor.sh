#!/usr/bin/env bash
# Performance-floor gate on perfbench (BENCHMARK.json).
#
# Runs `perfbench/run.py --workers 2 --workload W --seconds 5` for each
# of the three workloads (~1 minute in all) and fails when
#   - a run reports "correct": false (a failed unit or identity check:
#     stats digests, serial-vs-pooled and copy-vs-fresh identity), or
#   - any workload's sim_kcycles_per_s is below SMT_PERF_FLOOR x that
#     workload's sim_kcycles_per_s in the last record of
#     BENCH_history.jsonl (simulated cycles per host second: the rate
#     that quiet-cycle leaping and the per-cycle stage costs move).
# The floor hunts order-of-magnitude slips (debug or sanitizer builds,
# quadratic per-cycle scans), not 10% drifts; a baseline from another
# host needs a lower SMT_PERF_FLOOR, and 0 disables it.
#
# A passing run prints one provenance-stamped record line on stdout
# (every perfbench metric per workload, host, git describe, UTC); a
# failing run prints it on stderr only, so it never becomes a baseline.
# The baseline is read before anything is printed, so appending is safe:
#   scripts/check_perf_floor.sh >> BENCH_history.jsonl
# CI compares against the last committed record, so commit records from
# a host like CI's: one from a slower host loosens the floor, one from a
# faster host can make CI fail.
#
# Usage: scripts/check_perf_floor.sh
#   SMT_PERF_FLOOR    required fraction of the baseline (default 0.7)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
floor="${SMT_PERF_FLOOR:-0.7}"
seconds=5
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cd "$repo"
for w in ilp8_single adts_sweep bal1_oracle; do
  echo "== perfbench $w (--seconds $seconds)" >&2
  python3 perfbench/run.py --workers 2 --workload "$w" \
    --seconds "$seconds" > "$tmp/$w.out"
done

python3 - "$tmp" "$repo/BENCH_history.jsonl" "$floor" "$seconds" \
  "$(git describe --always --dirty 2>/dev/null || echo unknown)" \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" <<'EOF'
import json
import os
import sys


def cpu_model():
    # The first "model name" line of /proc/cpuinfo, as the simulator's
    # own provenance (src/common/host_info.cpp) reads it.
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and ":" in line:
                    return line.split(":", 1)[1].strip() or "unknown"
    except OSError:
        pass
    return "unknown"


tmp, history, floor, seconds, describe, utc = sys.argv[1:]
record = {"time_utc": utc, "git_describe": describe, "workers": 2,
          "seconds": float(seconds), "host_cpu": cpu_model(),
          "host_nproc": os.cpu_count() or 0, "workloads": {}}
base = json.loads(open(history).read().splitlines()[-1])
ok = True
for w in ("ilp8_single", "adts_sweep", "bal1_oracle"):
    res = json.loads(open(f"{tmp}/{w}.out").read().splitlines()[-1])
    record["workloads"][w] = {"correct": res["correct"], **{
        k: m["value"] for k, m in res["metrics"].items()}}
    if not res["correct"]:
        print(f"check_perf_floor: {w}: {res['failed']} of "
              f"{res['attempted']} units and checks failed", file=sys.stderr)
        ok = False

print(f"check_perf_floor: baseline {base['git_describe']} "
      f"({base['host_cpu']}), floor {float(floor):.2f}x", file=sys.stderr)
for w in ("ilp8_single", "adts_sweep", "bal1_oracle"):
    base_rate = base["workloads"][w]["sim_kcycles_per_s"]
    rate = record["workloads"][w]["sim_kcycles_per_s"]
    need = float(floor) * base_rate
    print(f"check_perf_floor: {w} {rate:.1f} kcycles/s vs baseline "
          f"{base_rate:.1f} -> floor {need:.1f}", file=sys.stderr)
    if rate < need:
        print(f"check_perf_floor: FAIL: {w} below the floor; on a slower "
              "host rerun with a lower SMT_PERF_FLOOR", file=sys.stderr)
        ok = False
print(json.dumps(record, sort_keys=True),
      file=sys.stdout if ok else sys.stderr)
print(f"check_perf_floor: {'OK' if ok else 'FAIL'}", file=sys.stderr)
sys.exit(0 if ok else 1)
EOF
