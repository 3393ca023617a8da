#!/usr/bin/env bash
# A/A check of the benchmark against itself: aa.sh [runs] [seconds].
# aa.py makes two sets of runs on the same seeds, each run the `command` of
# BENCHMARK.json (so run.sh builds), and writes benchmark/AA.md; see its
# docstring for the four checks.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 benchmark/aa.py "$@"
