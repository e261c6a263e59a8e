#!/usr/bin/env bash
# Build the hypart CLI and the end-to-end benchmark from this checkout, then
# run the benchmark with the given arguments (see bench/e2e/README.md), e.g.
#   bash bench/e2e/run.sh --workload serve_warm --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the benchmark's result is the last line of
# stdout.  Run from the root of the checkout.
set -euo pipefail
# keep every build artifact and temporary file inside the checkout
export DUNE_CACHE=disabled
mkdir -p _build/bench-e2e/tmp
export TMPDIR="$PWD/_build/bench-e2e/tmp"
dune build --root . bin/hypart.exe bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
