#!/usr/bin/env bash
# Trace-tools CI gate: smttrace end-to-end against real smtsim traces.
#
# 1. Writes the same run twice; the two JSONL traces must be byte-equal
#    and `smttrace diff` across them must report zero differing quanta,
#    as must a self-diff of one file.
# 2. `smttrace switches` totals must agree with smtsim's own human
#    summary line ("N switches (B benign / M malignant ...)") — both sides
#    route through the shared classifier in src/obs/switch_audit.hpp.
# 3. `smttrace pipeview` must render exactly the sampled instruction
#    count; `summary` must count smtsim's switches; `summary` and `hist`
#    must run and mention their key sections.
# 4. `smtsim --trace -` piped into `smttrace summary -` works (stdout
#    streaming), and exit codes hold: 2 for usage errors (every removed
#    flag, --trace-format included, a stray positional argument, an
#    smttrace option its command ignores, and two stdout documents:
#    --trace - or --stats-json - with --csv; smtsim's options outside
#    their modes are tests/test_grid.cpp's OptionTable walk), 3
#    for unreadable input, a `smttrace chrome` export fed back in,
#    hostile lines (nesting past the schema, null / negative /
#    fractional / oversized integers) and `--oracle --quanta 0`.
#
# Usage: scripts/check_trace_tools.sh [smtsim-binary] [smttrace-binary]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
smtsim="${1:-${BUILD_DIR:-$repo/build}/src/smtsim}"
smttrace="${2:-$(dirname "$smtsim")/smttrace}"
for bin in "$smtsim" "$smttrace"; do
  if [ ! -x "$bin" ]; then
    echo "check_trace_tools: $bin not built" >&2
    exit 2
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run=(--mix mem8 --adts --cycles 32768 --warmup 8192 --quantum 1024
     --pipeview 48@8192)

echo "== generate traces (the same run twice)"
"$smtsim" "${run[@]}" --trace "$tmp/t.jsonl" > "$tmp/report.txt"
"$smtsim" "${run[@]}" --trace "$tmp/t2.jsonl" > /dev/null
cmp "$tmp/t.jsonl" "$tmp/t2.jsonl"

echo "== diff: two traces of the same run have zero deltas"
"$smttrace" diff "$tmp/t.jsonl" "$tmp/t2.jsonl" | tee "$tmp/diff.txt"
grep -q "quanta compared, 0 differing" "$tmp/diff.txt"

echo "== diff: self-diff has zero deltas"
"$smttrace" diff "$tmp/t.jsonl" "$tmp/t.jsonl" \
  | grep -q "quanta compared, 0 differing"

echo "== switches: audit totals match the smtsim summary line"
# smtsim prints: "... N switches (B benign / M malignant / S skipped)"
sim_line="$(grep -o '[0-9]* switches ([0-9]* benign / [0-9]* malignant' \
              "$tmp/report.txt")"
sim_benign="$(echo "$sim_line" | sed 's/.*(\([0-9]*\) benign.*/\1/')"
sim_malignant="$(echo "$sim_line" | sed 's/.*\/ \([0-9]*\) malignant.*/\1/')"
"$smttrace" switches "$tmp/t.jsonl" > "$tmp/switches.txt"
grep -q " switches: $sim_benign benign / $sim_malignant malignant / " \
  "$tmp/switches.txt"
echo "   $sim_benign benign / $sim_malignant malignant on both sides"

echo "== pipeview: every sampled instruction renders"
"$smttrace" pipeview "$tmp/t.jsonl" > "$tmp/pipeview.txt"
test "$(grep -c '^seq ' "$tmp/pipeview.txt")" -eq 48
grep -q "^48 sampled instructions:" "$tmp/pipeview.txt"

echo "== summary + hist run and carry their key sections"
"$smttrace" summary "$tmp/t.jsonl" --limit 8 > "$tmp/summary.txt"
grep -q "stall cause" "$tmp/summary.txt"
# The summary counts the trace's switch_audit rows: one per switch the
# detector applied, so the count must be smtsim's own.
sim_switches="${sim_line%% switches*}"
test "$sim_switches" -gt 0
grep -q ", $sim_switches policy switches\$" "$tmp/summary.txt" || {
  echo "check_trace_tools: summary does not count $sim_switches switches" >&2
  exit 1
}
"$smttrace" summary "$tmp/t.jsonl" --csv | grep -q "^quantum,cycles,"
"$smttrace" hist "$tmp/t.jsonl" > "$tmp/hist.txt"
grep -q "lifetime, fetch->retire" "$tmp/hist.txt"
grep -q "per-quantum machine IPC" "$tmp/hist.txt"

echo "== stdout streaming: smtsim --trace - | smttrace summary -"
"$smtsim" --mix mem8 --adts --cycles 8192 --quantum 1024 --trace - \
  | "$smttrace" summary - | grep -q "quanta,"

echo "== exit codes: 2 usage, 3 bad input / chrome / hostile lines"
rc=0; "$smttrace" bogus "$tmp/t.jsonl" >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
# The commands are smttrace's modes: --limit and --csv exit 2 where the
# command has no table to cap or reformat, and so does a repeated option.
for args in "hist --limit 3" "hist --csv" "chrome --limit 3" "chrome --csv" \
    "pipeview --csv" "summary --limit 3 --limit 4"; do
  rc=0
  # shellcheck disable=SC2086  # split the command and its options
  "$smttrace" $args "$tmp/t.jsonl" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "check_trace_tools: smttrace $args exited $rc," \
                          "want 2" >&2; exit 1; }
done
for opt in --limit=3 --csv; do
  rc=0; "$smttrace" schema "$opt" >/dev/null 2>&1 || rc=$?
  test "$rc" -eq 2
done
rc=0; "$smttrace" summary "$tmp/does-not-exist" >/dev/null 2>&1 || rc=$?
test "$rc" -eq 3
"$smttrace" chrome "$tmp/t.jsonl" > "$tmp/t.chrome"
rc=0; "$smttrace" summary "$tmp/t.chrome" >/dev/null 2>&1 || rc=$?
test "$rc" -eq 3
# Nesting deeper than the schema's two levels is refused before the
# parser recurses (2M levels would otherwise overflow the stack).
head -c 2000000 /dev/zero | tr '\0' '[' > "$tmp/deep.jsonl"
rc=0; "$smttrace" summary "$tmp/deep.jsonl" >/dev/null 2>&1 || rc=$?
test "$rc" -eq 3
for line in '{"event":"quantum","span":-5}' '{"event":"quantum","cycle":null}' \
    '{"event":"quantum","value":1.5}' '{"event":"quantum","code":256}' \
    '{"event":"quantum","tid":2147483648}' \
    '{"event":"prof","label":"fetch"}'; do
  rc=0; echo "$line" | "$smttrace" summary - >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 3 ] || { echo "check_trace_tools: $line exited $rc" >&2; exit 1; }
done
rc=0; "$smtsim" --mix mem8 --cycles 8192 --trace - --csv >/dev/null 2>&1 \
  || rc=$?
test "$rc" -eq 2  # stdout trace refuses to interleave with other stdout users
rc=0; "$smtsim" --mix mem8 --cycles 8192 --stats-json - --csv >/dev/null 2>&1 \
  || rc=$?
test "$rc" -eq 2  # a stdout stats document would drop the CSV
rc=0; "$smtsim" --mix bal1 --oracle --quanta 0 >/dev/null 2>&1 || rc=$?
test "$rc" -eq 3  # an oracle over zero quanta, like --cycles 0
# A stray positional (here a mistyped single-dash option and its value)
# is a usage error, not a silently ignored argument.
rc=0; "$smtsim" --mix ilp8 --warmup 0 -cycles 1000 >/dev/null 2>&1 || rc=$?
test "$rc" -eq 2
# The fault injector, the degradation guard and the CSV / Chrome trace
# backends were removed; their flags are unknown options now, not
# silently ignored ones.
for flag in "--trace-format csv" --guard --fault-report "--fault-seed 1" \
    "--fault-noise 0.3" \
    "--fault-noise-mag 0.5" "--fault-freeze 0.3" "--fault-corrupt 0.3" \
    "--fault-dt-stall 0.3" "--fault-stall-quanta 4" "--fault-drop 0.3" \
    "--fault-delay 0.3" "--fault-delay-quanta 2" "--fault-blackout 0.3" \
    "--fault-blackout-cycles 2048"; do
  rc=0
  # shellcheck disable=SC2086  # split "--flag value" into two arguments
  "$smtsim" --mix mem8 --adts --cycles 1024 $flag >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "check_trace_tools: smtsim $flag exited $rc, want 2" >&2
    exit 1
  fi
done

echo "check_trace_tools: OK"
