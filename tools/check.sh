#!/usr/bin/env sh
# tools/check.sh — the tier-1 verify, exactly as CI should run it:
#   1. configure with warnings-as-errors for the src/ library targets
#   2. build everything
#   3. run the CTest suite
#
# Usage: tools/check.sh [--fast] [build-dir]  (default: build-check)
#
#   --fast   run only the `fast`-labeled tests (seconds instead of minutes).
#            This still covers the porcc CLI smoke tests (list + usage
#            error) and the `porcc compile --json` smoke, which diffs the
#            machine-readable record against the checked-in expected shape
#            in tests/expected/.
#
# Any warning from -Wall -Wextra in src/ fails the build (PORCUPINE_WERROR),
# and any failing or timing-out test fails the script.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

FAST=0
BUILD_DIR=
for Arg in "$@"; do
  case "$Arg" in
    --fast) FAST=1 ;;
    -*) echo "check.sh: unknown option '$Arg'" >&2; exit 2 ;;
    *)
      if [ -n "$BUILD_DIR" ]; then
        echo "check.sh: more than one build dir given" >&2; exit 2
      fi
      BUILD_DIR=$Arg ;;
  esac
done
BUILD_DIR=${BUILD_DIR:-"$ROOT/build-check"}
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

echo "== configure ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S "$ROOT" -DPORCUPINE_WERROR=ON

echo "== build (-j$JOBS)"
cmake --build "$BUILD_DIR" -j "$JOBS"

if [ "$FAST" = 1 ]; then
  echo "== test (-L fast)"
  ctest --test-dir "$BUILD_DIR" -L fast --output-on-failure -j "$JOBS"
else
  echo "== test"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
fi

echo "== check.sh: all green"
