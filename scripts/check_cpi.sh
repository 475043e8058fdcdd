#!/usr/bin/env bash
# CPI-stack CI gate (DESIGN.md §18).
#
# `smttrace cpi` renders the per-thread stacks and reports
# "conservation OK"; a trace A/B self-diff reports 0 differing rows.
# The cpi_stack rows' rob_empty-by-cause slots are commit slots, so
# `smttrace summary` and `smttrace diff` must not count them as lost
# fetch slots: a --cpi trace summarises like the plain trace of the same
# run, and the two diff to 0 differing quanta.
#
# Conservation on every mix and the accounting's observer contract
# (a --cpi run is the plain run; copies drop the accounting) are
# tests/test_observer_contract.cpp; check_observability.sh checks the
# --cpi stats keys and trace rows against the schema.
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

common=(--cycles 32768 --warmup 8192 --quantum 1024)

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
"$smtsim" --mix bal1 --cycles 4096 --warmup 0 --trace "$tmp/nocpi.jsonl" \
  > /dev/null
"$smttrace" cpi "$tmp/nocpi.jsonl" | grep -q "no cpi_stack events"

echo "check_cpi: OK"
