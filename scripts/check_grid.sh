#!/usr/bin/env bash
# Grid-runner CI gate: `smtsim --grid` resume and identity, end to end.
#
# 1. Reference: a 26-job grid (13 paper mixes × ICOUNT and one ADTS
#    variant) runs uninterrupted with --jobs 2 into ref/.
# 2. Kill and resume: the same grid runs into out/ and is SIGKILLed as
#    soon as its first document is published; a torn temp file is
#    planted for one unpublished job. The restart must print exactly one
#    line per job: "cached" for each document present before it and
#    "ran" for every other job (the temp file is not a result). out/
#    must then be byte-identical to ref/: same files, same bytes, no
#    temp file left.
# 3. Direct identity: each published document must be byte-identical
#    to the --stats-json document of a direct `smtsim` run of its job.
# 4. BENCH_adts.json: scripts/run_bench_suite.sh runs
#    bench/adts_suite.grid afresh with 4 workers and must reproduce the
#    committed file byte for byte.
# 5. Oracle: --jobs 1 and --jobs 8 print the same CSV bytes.
#
# Usage: scripts/check_grid.sh [smtsim-binary]
#   (the binary must sit at BUILD/src/smtsim, as step 4 uses BUILD)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
smtsim="${1:-${BUILD_DIR:-$repo/build}/src/smtsim}"
if [ ! -x "$smtsim" ]; then
  echo "check_grid: $smtsim not built" >&2
  exit 2
fi

tmp="$(mktemp -d)"
pid=""
cleanup() {
  if [ -n "$pid" ]; then kill -9 "$pid" 2>/dev/null || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT

cycles=65536
warmup=8192
quantum=4096
cat > "$tmp/paper.grid" <<EOF
cycles $cycles
warmup $warmup
quantum $quantum
mix ctrl8 mem8 ilp8 cache8 bal1 bal2 bal3 bal4 int8 span8 fp8 var1 var2
policy ICOUNT
adts 3p@2.5
EOF
njobs=26
grid=(--grid "$tmp/paper.grid" --jobs 2)

# Digests of the published documents in a directory, sorted.
published() {
  { find "$1" -maxdepth 1 -name '*.json' -printf '%f\n' 2>/dev/null || true; } \
    | sed 's/\.json$//' | sort
}
# Digests of the log lines starting with word $1, sorted.
lines_of() { awk -v w="$1" '$1 == w { print $2 }' "$2" | sort; }

echo "== reference: uninterrupted run"
"$smtsim" "${grid[@]}" --out "$tmp/ref" > "$tmp/ref.log"
[ "$(lines_of ran "$tmp/ref.log" | wc -l)" -eq "$njobs" ] \
  || { echo "check_grid: reference did not run $njobs jobs" >&2
       cat "$tmp/ref.log" >&2; exit 1; }

echo "== kill after the first published document, then resume"
"$smtsim" "${grid[@]}" --out "$tmp/out" > "$tmp/killed.log" 2>&1 &
pid=$!
for _ in $(seq 1 3000); do
  if [ -n "$(published "$tmp/out")" ] || ! kill -0 "$pid" 2>/dev/null; then
    break
  fi
  sleep 0.01
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=""
published "$tmp/out" > "$tmp/before"
before=$(wc -l < "$tmp/before")
if [ "$before" -lt 1 ] || [ "$before" -ge "$njobs" ]; then
  echo "check_grid: kill landed with $before of $njobs published;" \
    "want a partial grid" >&2
  exit 1
fi
missing=$(comm -13 "$tmp/before" <(published "$tmp/ref") | head -1)
printf '{"torn' > "$tmp/out/$missing.json.tmp"
echo "   killed with $before of $njobs published; torn temp for $missing"

"$smtsim" "${grid[@]}" --out "$tmp/out" > "$tmp/resume.log"
lines_of cached "$tmp/resume.log" > "$tmp/cached"
lines_of ran "$tmp/resume.log" > "$tmp/ran"
[ "$(grep -c . "$tmp/resume.log")" -eq "$njobs" ] \
  || { echo "check_grid: want one line per job" >&2
       cat "$tmp/resume.log" >&2; exit 1; }
cmp -s "$tmp/cached" "$tmp/before" \
  || { echo "check_grid: resume did not serve exactly the published" \
         "documents from DIR" >&2; diff "$tmp/before" "$tmp/cached" >&2; exit 1; }
comm -13 "$tmp/before" <(published "$tmp/ref") | cmp -s - "$tmp/ran" \
  || { echo "check_grid: resume did not run exactly the missing jobs" >&2
       cat "$tmp/resume.log" >&2; exit 1; }
diff -r "$tmp/ref" "$tmp/out" \
  || { echo "check_grid: resumed DIR differs from the uninterrupted one" >&2
       exit 1; }
echo "   resume: $(wc -l < "$tmp/cached") cached, $(wc -l < "$tmp/ran") ran;" \
  "DIR byte-identical to the uninterrupted run"

echo "== each document equals a direct smtsim --stats-json run"
while read -r _ digest mix _ seed variant; do
  case "$variant" in
    "adts "*)
      spec="${variant#adts Type}"
      heuristic="${spec%@*}"
      [ "$heuristic" = "3'" ] && heuristic=3p
      sched=(--adts --heuristic "$heuristic" --threshold "${spec#*@}"
             --quantum "$quantum") ;;
    *) sched=(--policy "$variant") ;;
  esac
  "$smtsim" --mix "$mix" --seed "$seed" --cycles "$cycles" \
    --warmup "$warmup" "${sched[@]}" --stats-json "$tmp/direct.json" \
    > /dev/null
  cmp -s "$tmp/direct.json" "$tmp/ref/$digest.json" \
    || { echo "check_grid: $digest ($mix $variant) differs from a direct" \
           "run" >&2; exit 1; }
done < <(grep '^ran ' "$tmp/ref.log")
echo "   $njobs documents byte-identical to direct runs"

echo "== run_bench_suite.sh (4 workers) reproduces BENCH_adts.json"
BUILD_DIR="$(dirname "$(dirname "$smtsim")")" SMT_JOBS=4 \
  "$repo/scripts/run_bench_suite.sh" "$tmp/bench_adts.json" > /dev/null
cmp "$tmp/bench_adts.json" "$repo/BENCH_adts.json" \
  || { echo "check_grid: BENCH_adts.json differs from a fresh run;" \
         "regenerate it with scripts/run_bench_suite.sh if the simulator" \
         "changed" >&2; exit 1; }
echo "   byte-identical"

echo "== oracle: --jobs 1 and --jobs 8 print the same CSV"
oracle=(--mix bal1 --oracle --quanta 6 --warmup 8192 --csv)
"$smtsim" "${oracle[@]}" --jobs 1 > "$tmp/oracle.j1.csv"
"$smtsim" "${oracle[@]}" --jobs 8 > "$tmp/oracle.j8.csv"
cmp "$tmp/oracle.j1.csv" "$tmp/oracle.j8.csv"
echo "   byte-identical"

echo "check_grid: OK"
