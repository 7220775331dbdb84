#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Build output goes to stderr; the last
# line of stdout is the result JSON (see perfbench/METRICS.md).
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
# build inside the checkout only, not into a shared dune cache
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
