#!/usr/bin/env bash
# Observability CI gate.
#
# 1. Runs a short-quantum ADTS mix with --trace and validates the JSONL
#    event stream against the schema `smttrace schema` prints (required
#    keys per kind, known event kinds, stall and CPI cause buckets,
#    build_info keys), and the `smttrace chrome` export of it.
# 2. Validates the --stats-json document parses and carries the stall
#    conservation law (per-thread causes + machine bucket + DT slots ==
#    idle fetch slots).
# 3. Asserts the zero-perturbation contract through the CLI: the --csv
#    result of a run with every observer flag on (--check --trace
#    --pipeview --prof --cpi) is byte-identical to the same run with none
#    (and exits 0, so the checker found nothing). The contract on every
#    mix, in-process, is tests/test_observer_contract.cpp.
#
# Usage: scripts/check_observability.sh [smtsim-binary] [smttrace-binary]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
smtsim="${1:-${BUILD_DIR:-$repo/build}/src/smtsim}"
smttrace="${2:-$(dirname "$smtsim")/smttrace}"
for bin in "$smtsim" "$smttrace"; do
  [ -x "$bin" ] || { echo "check_observability: $bin not built" >&2; exit 2; }
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run=(--mix mem8 --adts --cycles 32768 --warmup 8192 --quantum 1024 --csv)

echo "== traced run (checker, pipeview sampling, host profiling, CPI stacks)"
"$smtsim" "${run[@]}" --check --trace "$tmp/trace.jsonl" \
  --pipeview 64@8192,48@16384 --prof --cpi \
  --stats-json "$tmp/stats.json" > "$tmp/traced.csv"
echo "== untraced run"
"$smtsim" "${run[@]}" > "$tmp/untraced.csv"

echo "== observed vs plain --csv bit-identical"
cmp "$tmp/traced.csv" "$tmp/untraced.csv"

echo "== chrome export and schema"
"$smttrace" chrome "$tmp/trace.jsonl" > "$tmp/trace.chrome"
"$smttrace" schema > "$tmp/schema.json"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$tmp/trace.jsonl" "$tmp/stats.json" "$tmp/trace.chrome" \
    "$tmp/schema.json" <<'EOF'
import json
import sys

jsonl, stats_path, chrome, schema_path = sys.argv[1:5]

# The one declared schema (src/obs/trace_schema.hpp).
schema = json.load(open(schema_path))
KINDS = set(schema["event_kinds"])
BUILD_KEYS = {"event"} | set(schema["build_info_keys"])
CAUSES = set(schema["stall_causes"])
CPI_CAUSES = set(schema["cpi_causes"])
assert KINDS and CAUSES and CPI_CAUSES, "empty schema"

n = 0
pipeview = 0
audits = 0
cpi_rows = 0
digest = None
with open(jsonl) as f:
    for i, line in enumerate(f):
        e = json.loads(line)
        if i == 0:
            # Provenance header: first line of every trace.
            assert e["event"] == schema["build_info_event"], \
                "missing build_info header"
            assert set(e) == BUILD_KEYS, f"build_info keys {set(e) ^ BUILD_KEYS}"
            digest = e["config_digest"]
            continue
        want = {k["key"] for k in schema["event_keys"]
                if k["only"] in (None, e["event"])}
        assert set(e) == want, f"line {i + 1}: keys {set(e) ^ want}"
        assert e["event"] in KINDS, f"line {i + 1}: kind {e['event']}"
        assert set(e["stalls"]) == CAUSES, f"line {i + 1}: stall causes"
        if e["event"] == "pipeview":
            pipeview += 1
            assert len(e["stages"]) == len(schema["pipe_stages"]), \
                f"line {i + 1}: stage slots"
        elif e["event"] == "switch_audit":
            audits += 1
            assert int(e["value"]) in (0, 1, 2), f"line {i + 1}: label"
        elif e["event"] == "cpi_stack":
            cpi_rows += 1
            assert set(e["cpi"]) == CPI_CAUSES, f"line {i + 1}: cpi causes"
            assert len(e["contend"]) == schema["contend_slots"], \
                f"line {i + 1}: contend slots"
            # Per-row conservation: every commit slot of the span charged.
            assert sum(e["cpi"].values()) == e["value"] * e["span"], \
                f"line {i + 1}: cpi slots leak"
            assert sum(e["stalls"].values()) == e["cpi"]["rob_empty"], \
                f"line {i + 1}: rob_empty breakdown leaks"
            assert sum(e["contend"]) == e["cpi"]["fu_contention"], \
                f"line {i + 1}: contention breakdown leaks"
        n += 1
assert n > 0, "empty trace"
assert pipeview == 64 + 48, f"pipeview rows: {pipeview}"
assert audits > 0, "no switch_audit rows in an ADTS run with switches"
assert cpi_rows > 0, "no cpi_stack rows in a --cpi run"
print(f"== trace.jsonl: {n} events ({pipeview} pipeview, {audits} audits, "
      f"{cpi_rows} cpi), schema OK")

stats = json.load(open(stats_path))
threads = stats["threads"]
charged = sum(t["stall_slots"] for t in threads.values() if "stall_slots" in t)
charged += sum(stats["machine"]["stalls"].values())
assert charged == stats["machine"]["charged_stall_slots"], "stall sum"
assert charged + stats["machine"]["dt_slots_used"] == \
    stats["machine"]["fetch_slots_idle"], "conservation"
print("== stats.json: stall conservation OK")

# CPI-stack conservation: every thread's causes sum to the commit-slot
# budget, and the per-thread budgets sum to the machine's.
budget = stats["cpi"]["commit_width"] * stats["cpi"]["cycles_accounted"]
cpi_total = 0
for tid, t in threads.items():
    slots = sum(t["cpi"][c] for c in CPI_CAUSES)
    assert slots == t["cpi"]["slots"] == budget, f"cpi slots leak, tid {tid}"
    assert sum(t["cpi"]["rob_empty_by"].values()) == t["cpi"]["rob_empty"], \
        f"rob_empty breakdown leaks, tid {tid}"
    assert sum(t["cpi"]["contend"].values()) == t["cpi"]["fu_contention"], \
        f"contention breakdown leaks, tid {tid}"
    cpi_total += slots
assert cpi_total == stats["cpi"]["slots_accounted"], "cpi machine budget"
print("== stats.json: cpi conservation OK")

# run.* provenance must agree with the trace's build_info header.
assert stats["run"]["config_digest"] == digest, "config digest mismatch"
assert int(stats["run"]["seed"]) == 2003, "seed"
assert stats["audit"]["records"] == audits, "audit records vs trace rows"
print("== stats.json: run/audit provenance agrees with the trace")

doc = json.load(open(chrome))
assert doc["traceEvents"], "empty chrome trace"
assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "C", "i"}
print(f"== trace.chrome: {len(doc['traceEvents'])} trace events OK")
EOF
else
  echo "== python3 unavailable: JSONL/JSON schema validation skipped"
fi

echo "check_observability: OK"
