#!/usr/bin/env bash
# Host-profiling CI gate: the profiler's zero-perturbation and
# accounting contracts, end to end.
#
# 1. Profiling-off byte-identity through the CLI, on mem8. The same run
#    executes plain and with --prof/--prof-folded; the --csv result and
#    the JSONL trace must be byte-identical (a trace holds simulated time
#    only), and --stats-json identical once the prof.* subtree is
#    dropped. The profiler's contract on every mix, in-process, is
#    tests/test_observer_contract.cpp.
# 2. Folded-stack well-formedness: every line is `path ns` with a
#    [A-Za-z0-9_;] path. The memory-bound mem8 run must show time under
#    run;measured;cycle;skip, the node that times leaps over quiet
#    cycles, and its count (cycles leapt) must be a positive share of
#    the measured cycles.
# 3. Telescoping coverage: the sum of exclusive ns over the phase tree
#    must account for >= 90% of prof.total_ns (wall time from profiler
#    start to stats export) and never exceed it by more than rounding.
# 4. CLI contract: --prof-stride rejects non-powers-of-two with exit 3,
#    and --prof under --csv with neither --stats-json nor --prof-folded
#    (no sink for the profile) exits 2.
# 5. Overhead: a profiled run, writing its profile with --prof-folded,
#    may not be more than 25% slower than a plain run (generous bound so
#    loaded CI hosts don't flake; the design budget is <5%, see
#    DESIGN.md §15).
#
# Usage: scripts/check_prof.sh [smtsim]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
smtsim="${1:-${BUILD_DIR:-$repo/build}/src/smtsim}"
if [ ! -x "$smtsim" ]; then
  echo "check_prof: $smtsim not built" >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# JSON-level assertions (stats equality, coverage arithmetic) need
# python3; the byte-level ones run everywhere.
have_py=0
command -v python3 >/dev/null 2>&1 && have_py=1

echo "== profiling-off byte-identity (mem8)"
run=(--mix mem8 --adts --cycles 32768 --warmup 8192 --quantum 1024 --csv)
"$smtsim" "${run[@]}" \
  --trace "$tmp/plain.jsonl" \
  --stats-json "$tmp/plain.json" > "$tmp/plain.csv"
"$smtsim" "${run[@]}" \
  --trace "$tmp/prof.jsonl" \
  --stats-json "$tmp/prof.json" \
  --prof --prof-folded "$tmp/mem8.folded" > "$tmp/prof.csv"
cmp "$tmp/plain.csv" "$tmp/prof.csv" \
  || { echo "check_prof: --csv differs under --prof" >&2; exit 1; }
cmp "$tmp/plain.jsonl" "$tmp/prof.jsonl" \
  || { echo "check_prof: trace differs under --prof" >&2; exit 1; }
if [ "$have_py" -eq 1 ]; then
  python3 - "$tmp/plain.json" "$tmp/prof.json" <<'EOF'
import json, sys
plain = json.load(open(sys.argv[1]))
prof = json.load(open(sys.argv[2]))
assert "prof" not in plain, "plain run exported prof.* metrics"
assert prof.pop("prof", None) is not None, "profiled run missing prof.*"
assert plain == prof, "stats differ beyond the prof.* subtree"
EOF
fi

echo "== folded output well-formed"
[ -s "$tmp/mem8.folded" ] \
  || { echo "check_prof: folded output empty" >&2; exit 1; }
bad="$(grep -cvE '^[A-Za-z0-9_;]+ [0-9]+$' "$tmp/mem8.folded" || true)"
if [ "$bad" -ne 0 ]; then
  echo "check_prof: folded output has $bad malformed lines" >&2
  cat "$tmp/mem8.folded" >&2
  exit 1
fi
grep -qE '^run;measured;cycle;skip [0-9]+$' "$tmp/mem8.folded" \
  || { echo "check_prof: folded output has no cycle;skip node" >&2; exit 1; }

if [ "$have_py" -eq 1 ]; then
echo "== telescoping coverage: sum(excl) vs prof.total_ns"
"$smtsim" --mix mem8 --cycles 262144 --warmup 32768 --prof \
  --stats-json "$tmp/coverage.json" --csv > /dev/null
python3 - "$tmp/coverage.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))

def excl(node):
    total = node.get("excl_ns", 0)
    for v in node.values():
        if isinstance(v, dict):
            total += excl(v)
    return total

total_ns = stats["prof"]["total_ns"]
sum_excl = excl(stats["prof"]["run"])
leapt = stats["prof"]["run"]["measured"]["cycle"]["skip"]["count"]
measured = stats["run"]["measured_cycles"]
assert 0 < leapt < measured, \
    f"skip node counts {leapt} leapt cycles of {measured} measured"
print(f"   {leapt / measured:.1%} of measured cycles leapt (cycle.skip.count)")
ratio = sum_excl / total_ns
assert 0.90 <= ratio <= 1.001, \
    f"exclusive sum covers {ratio:.1%} of wall (want 90%..100%)"
print(f"   phases account for {ratio:.1%} of {total_ns / 1e6:.1f} ms wall")
EOF
else
  echo "== python3 unavailable: JSON-level assertions skipped"
fi

echo "== CLI contract: stride validation, a profile needs a sink"
rc=0; "$smtsim" --mix bal1 --cycles 1024 --prof-folded "$tmp/stride.folded" \
  --prof-stride 3 --csv > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] \
  || { echo "check_prof: --prof-stride 3 exited $rc, want 3" >&2; exit 1; }
rc=0; "$smtsim" --mix bal1 --cycles 1024 --prof --csv > /dev/null 2>&1 \
  || rc=$?
[ "$rc" -eq 2 ] \
  || { echo "check_prof: --prof --csv exited $rc, want 2" >&2; exit 1; }

echo "== overhead: profiled run vs plain run (generous 25% bound)"
overhead=(--mix ilp8 --cycles 1048576 --warmup 32768 --csv)
best_plain=0; best_prof=0
for _ in 1 2 3; do
  t0=$(date +%s%N); "$smtsim" "${overhead[@]}" > /dev/null; t1=$(date +%s%N)
  d=$((t1 - t0))
  if [ "$best_plain" -eq 0 ] || [ "$d" -lt "$best_plain" ]; then
    best_plain=$d
  fi
  t0=$(date +%s%N)
  "$smtsim" "${overhead[@]}" --prof-folded "$tmp/overhead.folded" > /dev/null
  t1=$(date +%s%N)
  d=$((t1 - t0))
  if [ "$best_prof" -eq 0 ] || [ "$d" -lt "$best_prof" ]; then
    best_prof=$d
  fi
done
echo "   plain $((best_plain / 1000000)) ms, profiled $((best_prof / 1000000)) ms (best of 3)"
if [ "$best_prof" -gt $((best_plain + best_plain / 4)) ]; then
  echo "check_prof: profiling overhead exceeds 25%" >&2
  exit 1
fi

echo "check_prof: OK"
