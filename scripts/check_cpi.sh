#!/usr/bin/env bash
# CPI-stack CI gate (DESIGN.md §18).
#
# 1. Conservation sweep: every paper mix runs under --cpi (fixed and
#    ADTS); for every thread, the per-cause commit slots must sum to
#    commit_width x cycles_accounted, the ROB-empty fetch-cause breakdown
#    must sum to the rob_empty bucket, and the contention holder
#    breakdown must sum to the fu_contention bucket.
# 2. Zero-perturbation: the stats-JSON of a --cpi run, with the cpi.*
#    keys stripped, is byte-identical to the same run without --cpi (the
#    golden digests in test_stats_identity lock the accounting-off side).
# 3. Tooling: `smttrace cpi` renders the per-thread stacks and reports
#    "conservation OK"; a trace A/B self-diff reports 0 differing rows.
#    The cpi_stack rows' rob_empty-by-cause slots are commit slots, so
#    `smttrace summary` and `smttrace diff` must not count them as lost
#    fetch slots: a --cpi trace summarises like the plain trace of the
#    same run, and the two diff to 0 differing quanta.
#
# Usage: scripts/check_cpi.sh [smtsim-binary] [smttrace-binary]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
smtsim="${1:-${BUILD_DIR:-$repo/build}/src/smtsim}"
smttrace="${2:-${BUILD_DIR:-$repo/build}/src/smttrace}"
for bin in "$smtsim" "$smttrace"; do
  if [ ! -x "$bin" ]; then
    echo "check_cpi: $bin not built" >&2
    exit 2
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mixes=(ctrl8 mem8 ilp8 cache8 bal1 bal2 bal3 bal4 int8 span8 fp8 var1 var2)
common=(--cycles 32768 --warmup 8192 --quantum 1024)

echo "== conservation sweep over ${#mixes[@]} mixes (fixed + adts)"
"$smttrace" schema > "$tmp/schema.json"  # the declared CPI cause names
for mix in "${mixes[@]}"; do
  for mode in fixed adts; do
    extra=()
    [ "$mode" = adts ] && extra=(--adts)
    "$smtsim" --mix "$mix" "${common[@]}" "${extra[@]}" --cpi \
      --stats-json "$tmp/$mix.$mode.json" > /dev/null
    python3 - "$tmp/$mix.$mode.json" "$mix/$mode" "$tmp/schema.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
label = sys.argv[2]
cpi = stats["cpi"]
width = cpi["commit_width"]
cycles = cpi["cycles_accounted"]
causes = json.load(open(sys.argv[3]))["cpi_causes"]
assert cycles > 0, label
total = 0
for tid, t in stats["threads"].items():
    s = t["cpi"]
    charged = sum(s[c] for c in causes)
    assert charged == s["slots"] == width * cycles, \
        f"{label} tid {tid}: {charged} slots charged, " \
        f"budget {width * cycles}"
    assert sum(s["rob_empty_by"].values()) == s["rob_empty"], \
        f"{label} tid {tid}: rob_empty breakdown leaks"
    assert sum(s["contend"].values()) == s["fu_contention"], \
        f"{label} tid {tid}: contention breakdown leaks"
    total += s["slots"]
assert total == cpi["slots_accounted"], label
EOF
  done
done

echo "== accounting-off byte-identity (cpi keys stripped == no --cpi)"
"$smtsim" --mix mem8 --adts "${common[@]}" --stats-json "$tmp/off.json" \
  > /dev/null
python3 - "$tmp/mem8.adts.json" "$tmp/off.json" <<'EOF'
import json, sys
on = json.load(open(sys.argv[1]))
off = json.load(open(sys.argv[2]))
on.pop("cpi")
for t in on["threads"].values():
    t.pop("cpi")
assert on == off, "a --cpi run perturbed (or leaked keys into) the stats"
EOF
# And the CSV result line is byte-identical without any stripping.
"$smtsim" --mix mem8 --adts "${common[@]}" --csv > "$tmp/plain.csv"
"$smtsim" --mix mem8 --adts "${common[@]}" --cpi --csv > "$tmp/cpi.csv"
cmp "$tmp/plain.csv" "$tmp/cpi.csv"

echo "== smttrace cpi report + self-diff"
"$smtsim" --mix mem8 --adts "${common[@]}" --cpi --trace "$tmp/a.jsonl" \
  > /dev/null
"$smtsim" --mix mem8 --adts "${common[@]}" --cpi --trace "$tmp/b.jsonl" \
  > /dev/null
"$smttrace" cpi "$tmp/a.jsonl" > "$tmp/report.txt"
grep -q "conservation OK" "$tmp/report.txt"
grep -q "cpi rows" "$tmp/report.txt"
# Same run, same rows: the A/B diff must find nothing, within one trace
# and across two runs of the same config.
"$smttrace" cpi "$tmp/a.jsonl" "$tmp/a.jsonl" | grep -q ", 0 differing"
"$smttrace" cpi "$tmp/a.jsonl" "$tmp/b.jsonl" | grep -q ", 0 differing"
# cpi_stack rows add no fetch stalls to summary or diff.
"$smtsim" --mix mem8 --adts "${common[@]}" --trace "$tmp/plain.jsonl" \
  > /dev/null
"$smttrace" summary "$tmp/plain.jsonl" > "$tmp/plain.summary"
"$smttrace" summary "$tmp/a.jsonl" > "$tmp/cpi.summary"
cmp "$tmp/plain.summary" "$tmp/cpi.summary" \
  || { echo "check_cpi: summary of the --cpi trace differs" >&2; exit 1; }
"$smttrace" diff "$tmp/plain.jsonl" "$tmp/a.jsonl" | tail -1 \
  | grep -q ", 0 differing" \
  || { echo "check_cpi: diff of plain vs --cpi trace differs" >&2; exit 1; }
# A run without --cpi yields the pointed no-rows message, not a crash.
"$smtsim" --mix bal1 --cycles 4096 --warmup 0 --quantum 1024 \
  --trace "$tmp/nocpi.jsonl" > /dev/null
"$smttrace" cpi "$tmp/nocpi.jsonl" | grep -q "no cpi_stack events"

echo "check_cpi: OK (${#mixes[@]} mixes, fixed + adts)"
