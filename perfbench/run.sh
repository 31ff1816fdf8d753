#!/usr/bin/env bash
# Build the CLI and the benchmark from this checkout's sources, then run one
# workload: run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of a SkinnyMine source checkout" >&2
  exit 2
fi
# The dune cache lives outside the checkout; keep every write inside it.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/skinny_cli.exe ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
