#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
# Usage: scripts/check_sanitize.sh [address|undefined|address,undefined|thread]...
# With no arguments ASan and UBSan run, each in its own build tree
# (build-asan/, build-ubsan/), leaving the regular build/ untouched.
# A combined "address,undefined" argument builds one tree under both
# (build-asan-ubsan/) — what the CI matrix uses for its merged job.
#
# "thread" builds under TSan (build-tsan/) and runs only the tests that
# actually exercise concurrency — the par::ThreadPool suite, the
# parallel oracle/sim/sweep, the (variant x mix) fan-out every paper
# table runs on, the stream chunk chain that simulator copies share
# across workers, and the pooled grid runner (plus the grid parser it
# runs on) — because the rest of the library is single-threaded by
# construction (the thread-primitive lint rule fences it) and TSan's
# ~5-15x slowdown would waste most of the run re-proving that.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined)
fi

# The TSan suites, as ctest names them ("Suite.Case").
tsan_suites="ThreadPool|ParallelOracle|ParallelSim|ParallelSweep|MixSweep|StreamChain|BatchSpec|JobDigest|GridRunner"

for san in "${sanitizers[@]}"; do
  filter=""
  case "$san" in
    address)           dir="$repo/build-asan" ;;
    undefined)         dir="$repo/build-ubsan" ;;
    address,undefined|undefined,address) dir="$repo/build-asan-ubsan" ;;
    thread)            dir="$repo/build-tsan"
                       filter="^($tsan_suites)\." ;;
    *) echo "unknown sanitizer: $san (use address | undefined |" \
            "address,undefined | thread)" >&2; exit 2 ;;
  esac
  echo "== $san: configuring $dir"
  cmake -B "$dir" -S "$repo" -DSMT_SANITIZE="$san" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "== $san: building"
  cmake --build "$dir" -j "$(nproc)"
  if [ -n "$filter" ]; then
    # Every suite must still name a test: a renamed one would otherwise
    # drop out of TSan coverage without failing anything.
    IFS='|' read -ra suites <<< "$tsan_suites"
    for suite in "${suites[@]}"; do
      n="$(cd "$dir" && ctest -N -R "^$suite\." | sed -n 's/^Total Tests: //p')"
      if [ "${n:-0}" -eq 0 ]; then
        echo "check_sanitize: TSan suite '$suite' matches no test" >&2
        exit 1
      fi
    done
  fi
  echo "== $san: running ctest"
  if [ -n "$filter" ]; then
    (cd "$dir" && ctest --output-on-failure -j "$(nproc)" -R "$filter")
  else
    (cd "$dir" && ctest --output-on-failure -j "$(nproc)")
  fi
  echo "== $san: OK"
done
