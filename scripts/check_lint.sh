#!/usr/bin/env bash
# Determinism & hygiene lint gate: runs smtlint (src/lint/, DESIGN.md
# §16; its catalog via `smtlint --list-rules`) over the tree and checks
# the analyzer's own contracts:
#
#   1. The tree is clean, and two runs print byte-identical output.
#   2. Exit codes (common/exit_codes.hpp): 0 clean, 4 findings, 2 usage
#      error (unknown or removed option, stray argument), 3 config error
#      (no repo at --root).
#   3. On a synthetic mini-repo, a banned call (srand) fires exactly once
#      although the same token also sits in a comment and a string on
#      neighbouring lines, and a NOLINT comment on the call's line does
#      not suppress it: a finding gets fixed.
#
# It needs a built smtlint (first argument, $SMTLINT, or
# build/src/smtlint) and fails without one rather than pass unchecked.
#
# Usage: scripts/check_lint.sh [path/to/smtlint]
# Exit 0 clean, 1 findings or a broken contract, 2 no smtlint binary.
set -uo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

smtlint="${1:-${SMTLINT:-build/src/smtlint}}"
if [ ! -x "$smtlint" ]; then
  echo "check_lint: no smtlint binary at $smtlint (build the smtlint" \
    "target first)" >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
complain() {
  echo "check_lint: $1" >&2
  fail=1
}

# --- the tree, twice --------------------------------------------------------
"$smtlint" --root "$repo" > "$tmp/run1.txt"
rc=$?
cat "$tmp/run1.txt"
if [ "$rc" -eq 4 ]; then
  complain "smtlint findings above"
elif [ "$rc" -ne 0 ]; then
  echo "check_lint: smtlint itself failed (exit $rc)" >&2
  exit "$rc"
fi
"$smtlint" --root "$repo" > "$tmp/run2.txt"
cmp -s "$tmp/run1.txt" "$tmp/run2.txt" \
  || complain "output differs between two identical runs"

# --- exit-code contract -----------------------------------------------------
expect_rc() {
  local want=$1 what=$2
  shift 2
  "$smtlint" "$@" >/dev/null 2>&1
  local got=$?
  [ "$got" -eq "$want" ] || complain "$what: expected exit $want, got $got"
}
expect_rc 2 "unknown option" --no-such-flag
expect_rc 2 "stray positional" --root "$repo" extra
for removed in "--format text" "--output -" "--baseline x" \
    "--rule ambient-clock"; do
  # shellcheck disable=SC2086  # split "--flag value" into two arguments
  expect_rc 2 "removed option $removed" --root "$repo" $removed
done
expect_rc 3 "nonexistent --root" --root "$tmp/nowhere"

# --- synthetic mini-repo: lexing, no suppression ----------------------------
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
  srand(7);  // NOLINT(ambient-clock)
  return x;
}
}  // namespace smt::demo
EOF

out="$("$smtlint" --root "$mini" 2>&1)"
rc=$?
[ "$rc" -eq 4 ] || complain "mini-repo: expected exit 4, got $rc"
hits=$(printf '%s\n' "$out" | grep -c '\[ambient-clock\]' || true)
[ "$hits" -eq 1 ] \
  || complain "expected exactly 1 ambient-clock finding, got $hits:"$'\n'"$out"
anchor='^src/demo/demo.cpp:8:3: error: .*\[ambient-clock\]$'
printf '%s\n' "$out" | grep -q "$anchor" \
  || complain "finding did not anchor to the real call (line 8):"$'\n'"$out"

if [ "$fail" -ne 0 ]; then
  echo "check_lint: FAILED" >&2
  exit 1
fi
echo "check_lint: OK (clean tree, deterministic output, exit-code" \
  "contract, mini-repo demo)"
