#!/usr/bin/env bash
# Determinism & hygiene lint gate: runs smtlint (src/lint/, DESIGN.md
# §16; its catalog via `smtlint --list-rules`) over the tree. It needs a
# built smtlint (first argument, $SMTLINT, or build/src/smtlint) and
# fails without one rather than pass unchecked.
#
# Usage: scripts/check_lint.sh [path/to/smtlint]
# Exit 0 clean, 1 findings, 2 no smtlint binary, else smtlint's own
# failure code.
set -uo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

smtlint="${1:-${SMTLINT:-build/src/smtlint}}"
if [ ! -x "$smtlint" ]; then
  echo "check_lint: no smtlint binary at $smtlint (build the smtlint" \
    "target first)" >&2
  exit 2
fi
if "$smtlint" --root "$repo"; then
  exit 0
else
  rc=$?
  if [ "$rc" -eq 4 ]; then
    echo "check_lint: FAILED (smtlint findings above)" >&2
    exit 1
  fi
  echo "check_lint: smtlint itself failed (exit $rc)" >&2
  exit "$rc"
fi
