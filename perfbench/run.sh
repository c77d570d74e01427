#!/usr/bin/env bash
# Build dmc and the benchmark runner from this source tree, then run
# the runner with the given arguments, e.g.
#   bash perfbench/run.sh --workload bounds-mix --seed 1 --seconds 20 --trace 0
# Run from the root of the source tree.  Everything it writes stays
# inside the tree: _build/, .bench_run/ and .bench_tmp/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/dmc.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a dmc source tree" >&2
  exit 2
fi

export DUNE_CACHE=disabled
export TMPDIR="$PWD/.bench_tmp"
mkdir -p "$TMPDIR"
dune build --root . ./bin/dmc.exe ./perfbench/bench.exe ./perfbench/spawner.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
