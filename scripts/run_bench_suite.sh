#!/usr/bin/env bash
# Regenerate BENCH_adts.json from the grid bench/adts_suite.grid.
#
# Runs the grid with `smtsim --grid` and assembles its per-job
# --stats-json documents into one file, keyed by mix and by mode: "fixed"
# for the ICOUNT job, "adts" for the ADTS job. The build- and
# host-identity keys of each document's run.* block (git sha, compiler,
# flags, cpu model, core count, SMT_JOBS) are dropped, so the file can be
# byte-compared across commits, toolchains and machines
# (scripts/check_grid.sh does).
#
# Usage: scripts/run_bench_suite.sh [output.json]
#   BUILD_DIR  build tree (default: build)
#   SMT_JOBS   grid workers (default 1; the output is identical for any
#              value)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
out="${1:-$repo/BENCH_adts.json}"
smtsim="$build/src/smtsim"
grid="$repo/bench/adts_suite.grid"

if [ ! -x "$smtsim" ]; then
  echo "== building ($build)"
  cmake -B "$build" -S "$repo" >/dev/null
  cmake --build "$build" -j "$(nproc)" --target smtsim >/dev/null
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
dir="$tmp/grid"

echo "== smtsim --grid $grid (${SMT_JOBS:-1} jobs)"
"$smtsim" --grid "$grid" --out "$dir" --jobs "${SMT_JOBS:-1}" > "$tmp/log"

# One "ran|cached <digest> <mix> seed <seed> <ICOUNT | adts Type3@2>" line
# per job.
python3 - "$dir" "$tmp/log" "$out" <<'PY'
import json
import sys

dir_, log, out = sys.argv[1:]
doc = {"suite": "adts", "mixes": {}}
for line in open(log):
    status, digest, mix, _, _, variant = line.split(maxsplit=5)
    if status not in ("ran", "cached"):
        sys.exit(f"run_bench_suite: {line.strip()}")
    run = json.load(open(f"{dir_}/{digest}.json"))
    for volatile in ("git_sha", "compiler", "flags",
                     "host_cpu", "host_cores", "smt_jobs"):
        run["run"].pop(volatile, None)
    # Every job of the grid shares these.
    doc["cycles"] = run["run"]["measured_cycles"]
    doc["warmup"] = run["run"]["warmup_cycles"]
    mode = "adts" if variant.startswith("adts ") else "fixed"
    doc["mixes"].setdefault(mix, {})[mode] = run
with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
PY
echo "== wrote $out"
