#!/usr/bin/env bash
# Builds the benchmark (perfbench/main.exe) and the nocsched daemon from
# source, then runs main.exe with the given arguments, from the repository
# root:
#
#   bash perfbench/run.sh --workload cat1-slack --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to stderr; main.exe's last stdout line is its JSON
# result. The shared dune cache is disabled so nothing is written outside
# the checkout.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./bin/nocsched.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
