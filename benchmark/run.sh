#!/bin/sh
# Builds the benchmark and the twilld daemon it drives, then runs the
# benchmark with the given arguments.  Run from the repository root:
#
#   sh benchmark/run.sh --workload chstone-flow --seed 1 --seconds 10 --trace 0
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: run from the repository root" >&2
  exit 2
fi
# --cache=disabled keeps every build output inside the checkout
dune build --root . --cache=disabled --display=quiet \
  ./benchmark/main.exe ./bin/twilld.exe
exec ./_build/default/benchmark/main.exe "$@"
