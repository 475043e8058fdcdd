#!/usr/bin/env bash
# Paper-tables gate: every table of `paper` at SMT_BENCH_SCALE=quick must
# print the same bytes with SMT_JOBS=1 and SMT_JOBS=4, an unknown table
# name must exit 2, print nothing on stdout and list the tables, and an
# unknown SMT_BENCH_SCALE must exit 3, print nothing on stdout and name
# the three scales.
#
# Usage: scripts/check_paper.sh [paper-binary]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
paper="${1:-${BUILD_DIR:-$repo/build}/bench/paper}"
[ -x "$paper" ] || { echo "check_paper: $paper not built" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

SMT_BENCH_SCALE=quick SMT_JOBS=1 "$paper" > "$tmp/serial.txt"
SMT_BENCH_SCALE=quick SMT_JOBS=4 "$paper" > "$tmp/pooled.txt"
cmp "$tmp/serial.txt" "$tmp/pooled.txt" ||
  { echo "check_paper: output differs between SMT_JOBS=1 and 4" >&2; exit 1; }

rc=0
"$paper" no_such_table > "$tmp/bad.txt" 2> "$tmp/bad.err" || rc=$?
if [ "$rc" -ne 2 ] || [ -s "$tmp/bad.txt" ] ||
   ! grep -q 'table1_policies' "$tmp/bad.err"; then
  echo "check_paper: unknown table exited $rc, want 2 and the table list" >&2
  exit 1
fi
rc=0
SMT_BENCH_SCALE=fulll "$paper" fig8_ipc > "$tmp/scale.txt" 2> "$tmp/scale.err" ||
  rc=$?
if [ "$rc" -ne 3 ] || [ -s "$tmp/scale.txt" ] ||
   ! grep -q 'quick, default or full' "$tmp/scale.err"; then
  echo "check_paper: SMT_BENCH_SCALE=fulll exited $rc, want 3 and the scales" >&2
  exit 1
fi
echo "check_paper: OK ($(grep -c '^== ' "$tmp/serial.txt") banners," \
     "identical for SMT_JOBS=1 and 4)"
