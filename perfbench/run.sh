#!/usr/bin/env bash
# Builds the benchmark from source with dune and runs it; every argument is
# passed through to perfbench.exe (see README.md). Run from the repository
# root. The shared dune cache stays off so the build writes only under
# _build in this tree.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
exec dune exec --root . --display quiet ./perfbench/perfbench.exe -- "$@"
