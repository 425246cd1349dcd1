#!/usr/bin/env bash
# Build csrl-serve and the harness from source into .bench_build, then run
# one benchmark measurement:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository; the build writes nothing outside
# it (no shared dune cache).  Build output goes to stderr; the
# last line of standard output is the result object.
set -euo pipefail
dune build --root . --build-dir .bench_build --profile release --cache=disabled \
  ./bin/csrl_serve.exe ./perfbench/harness.exe 1>&2
exec .bench_build/default/perfbench/harness.exe \
  --server .bench_build/default/bin/csrl_serve.exe "$@"
