#!/usr/bin/env bash
# Meta-gate for the static analyzer itself (DESIGN.md §16).
#
# Asserts the analyzer's two load-bearing contracts, the ones the other
# gates and CI build on:
#
#   1. Determinism — two runs over the same tree produce byte-identical
#      output, in both text and SARIF form. CI caches SARIF by content
#      and scripts diff analyzer output; a nondeterministic analyzer
#      would poison both.
#   2. Exit codes — 0 clean, 4 findings, 2 usage error, 3 config error
#      (common/exit_codes.hpp). The check_lint gate and the CI lint job
#      branch on these numbers.
#
# It also exercises the lexer's reason for existing on a synthetic
# mini-repo: a banned call (srand) fires exactly once even though the
# same token also appears in a trailing comment and a string literal on
# neighbouring lines — the false-positive class the old grep gate could
# not close. NOLINT suppression and baseline matching (including the
# baseline-stale finding) are exercised on the same mini-repo.
#
# Usage: scripts/check_smtlint.sh [path/to/smtlint]
# Exit 0 OK, 1 contract violated, 77 (ctest SKIP) when no binary exists.
set -uo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

smtlint="${1:-${SMTLINT:-build/src/smtlint}}"
if [ ! -x "$smtlint" ]; then
  echo "check_smtlint: SKIP — no smtlint binary at $smtlint" >&2
  exit 77
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
complain() {
  echo "check_smtlint: $1" >&2
  fail=1
}

expect_rc() {
  local want=$1 got=$2 what=$3
  if [ "$got" -ne "$want" ]; then
    complain "$what: expected exit $want, got $got"
  fi
}

# --- determinism: byte-identical output across runs, both formats ----------
"$smtlint" --root "$repo" --format text  > "$tmp/t1.txt"
rc1=$?
"$smtlint" --root "$repo" --format text  > "$tmp/t2.txt"
rc2=$?
[ "$rc1" -eq "$rc2" ] || complain "text runs disagree on exit code ($rc1 vs $rc2)"
cmp -s "$tmp/t1.txt" "$tmp/t2.txt" \
  || complain "text output differs between two identical runs"

"$smtlint" --root "$repo" --format sarif > "$tmp/s1.json"
"$smtlint" --root "$repo" --format sarif > "$tmp/s2.json"
cmp -s "$tmp/s1.json" "$tmp/s2.json" \
  || complain "SARIF output differs between two identical runs"

# --output FILE must match stdout byte-for-byte.
"$smtlint" --root "$repo" --format sarif --output "$tmp/s3.json"
cmp -s "$tmp/s1.json" "$tmp/s3.json" \
  || complain "--output file differs from stdout SARIF"

# SARIF must be well-formed JSON claiming the right schema version.
python3 - "$tmp/s1.json" <<'EOF' || fail=1
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == "2.1.0", "not SARIF 2.1.0"
driver = doc["runs"][0]["tool"]["driver"]
assert driver["name"] == "smtlint"
ids = [r["id"] for r in driver["rules"]]
assert ids == sorted(ids) and len(ids) == 12, f"rule catalog odd: {ids}"
for res in doc["runs"][0]["results"]:
    assert ids[res["ruleIndex"]] == res["ruleId"], "ruleIndex mismatch"
EOF

# The repo itself must be clean (exit 0): new violations either get
# fixed or get an explicit, reviewed baseline entry.
expect_rc 0 "$rc1" "repo lint run"

# --- exit-code contract -----------------------------------------------------
"$smtlint" --no-such-flag   >/dev/null 2>&1; expect_rc 2 $? "unknown option"
"$smtlint" --format bogus   >/dev/null 2>&1; expect_rc 2 $? "bad --format"
"$smtlint" --root "$tmp/nowhere" >/dev/null 2>&1
expect_rc 3 $? "nonexistent --root"
"$smtlint" --root "$repo" --rule no-such-rule >/dev/null 2>&1
expect_rc 3 $? "unknown --rule id"

# --- synthetic mini-repo: lexing, suppression, baseline --------------------
mini="$tmp/mini"
mkdir -p "$mini/src/demo"
cat > "$mini/src/demo/demo.cpp" <<'EOF'
// Demo of the false-positive class the grep gate could not close:
// only line 8's real call may fire, not the comment or the string.
#include <string>
namespace smt::demo {
int f() {
  const std::string doc = "never call srand(7) in library code";
  int x = doc.size();  // srand(7) quoted in a trailing comment
  srand(7);
  srand(8);  // NOLINT(ambient-clock) — suppression demo
  return x;
}
}  // namespace smt::demo
EOF

out="$("$smtlint" --root "$mini" --rule ambient-clock 2>&1)"
expect_rc 4 $? "mini-repo with one violation"
hits=$(printf '%s\n' "$out" | grep -c 'ambient-clock' || true)
[ "$hits" -eq 1 ] \
  || complain "expected exactly 1 ambient-clock finding, got $hits:"$'\n'"$out"
printf '%s\n' "$out" | grep -q 'demo.cpp:8:' \
  || complain "finding did not anchor to the real call (line 8):"$'\n'"$out"

# A baseline entry for that finding turns the run clean...
printf '# grandfathered\nambient-clock src/demo/demo.cpp:8\n' \
  > "$mini/.smtlint-baseline"
"$smtlint" --root "$mini" --rule ambient-clock,baseline-stale >/dev/null
expect_rc 0 $? "mini-repo with baselined finding"

# ...and a stale entry is itself a finding.
printf 'ambient-clock src/demo/demo.cpp:8\nambient-clock src/demo/demo.cpp:99\n' \
  > "$mini/.smtlint-baseline"
out="$("$smtlint" --root "$mini" --rule ambient-clock,baseline-stale 2>&1)"
expect_rc 4 $? "mini-repo with stale baseline entry"
printf '%s\n' "$out" | grep -q 'baseline-stale' \
  || complain "stale baseline entry not reported:"$'\n'"$out"

if [ "$fail" -ne 0 ]; then
  echo "check_smtlint: FAILED" >&2
  exit 1
fi
echo "check_smtlint: OK (deterministic output, exit-code contract," \
  "lexer/suppression/baseline demos)"
