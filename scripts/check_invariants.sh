#!/usr/bin/env bash
# Invariant-checker CI gate.
#
# 1. Runs every paper mix through an ADTS run under --check; any violated
#    microarchitectural invariant makes smtsim exit 4 and fails the gate.
# 2. Asserts the zero-perturbation contract: the --csv result of each
#    checked run is byte-identical to the same run unchecked.
# 3. Runs a short-quantum ADTS mix under --check and asserts that it
#    really switched policy, so the policy-switch pass saw live switches.
#
# Usage: scripts/check_invariants.sh [smtsim-binary]
#   SMT_JOBS  per-mix runs to launch concurrently (default 1; each run is
#             a separate process, so results are unaffected)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
smtsim="${1:-${BUILD_DIR:-$repo/build}/src/smtsim}"
if [ ! -x "$smtsim" ]; then
  echo "check_invariants: $smtsim not built" >&2
  exit 2
fi

jobs_n="${SMT_JOBS:-1}"
case "$jobs_n" in
  ''|*[!0-9]*|0) echo "check_invariants: SMT_JOBS must be >= 1" >&2; exit 2 ;;
esac

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mixes=(ctrl8 mem8 ilp8 cache8 bal1 bal2 bal3 bal4 int8 span8 fp8 var1 var2)
common=(--adts --cycles 32768 --warmup 8192 --quantum 1024 --csv)

# Fan the per-mix runs out as bounded background jobs (each writes its own
# files plus an .ok marker), then compare serially in the fixed mix order so
# output and failure reporting stay deterministic.
for mix in "${mixes[@]}"; do
  # `|| true`: a failed run is reported by the missing .ok marker below,
  # not by aborting the fan-out loop with no diagnostic.
  while [ "$(jobs -rp | wc -l)" -ge "$jobs_n" ]; do wait -n || true; done
  (
    "$smtsim" --mix "$mix" "${common[@]}" --check > "$tmp/$mix.checked.csv"
    "$smtsim" --mix "$mix" "${common[@]}"         > "$tmp/$mix.plain.csv"
    : > "$tmp/$mix.ok"
  ) &
done
wait

for mix in "${mixes[@]}"; do
  echo "== $mix: checked vs unchecked"
  if [ ! -e "$tmp/$mix.ok" ]; then
    echo "check_invariants: $mix run failed (invariant violation?)" >&2
    exit 1
  fi
  cmp "$tmp/$mix.checked.csv" "$tmp/$mix.plain.csv"
done

echo "== mem8 switching ADTS under --check"
"$smtsim" --mix mem8 --adts --cycles 32768 --warmup 8192 --quantum 1024 \
  --check --stats-json - > "$tmp/mem8.stats.json"
grep -Eq '"switches": *[1-9]' "$tmp/mem8.stats.json"

echo "== SMT_CHECK=1 environment enables auto mode"
SMT_CHECK=1 "$smtsim" --mix bal1 --cycles 8192 --csv > /dev/null

echo "check_invariants: OK (${#mixes[@]} mixes)"
