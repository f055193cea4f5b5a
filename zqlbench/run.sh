#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash zqlbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
dune build --root . ./zqlbench/main.exe 1>&2
exec ./_build/default/zqlbench/main.exe "$@"
