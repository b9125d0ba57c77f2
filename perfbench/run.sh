#!/usr/bin/env bash
# Build the benchmark and the routing daemon from source, then run one
# workload.  Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper_timed --seed 0 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a bgr checkout (dune-project, lib/ and bin/ missing)" >&2
  exit 2
fi

# No shared dune cache: the build reads and writes only this checkout.
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe ./bin/bgr_serve.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
