#!/usr/bin/env bash
# Build the benchmark, cedard and cedarproxy from this checkout's sources,
# then run one benchmark pass.
#
#   bash perfbench/run.sh --workload corpus-shared --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no cedar sources here (need dune-project, lib/, bin/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# the shared dune cache would write outside the checkout
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/cedard.exe \
  ./bin/cedarproxy.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
