#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The dune cache is off so the build writes nowhere outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --cache=disabled --display=quiet -- ./perfbench/main.exe "$@"
