#!/usr/bin/env bash
# Build the benchmark and the fbbd daemon from source, then run the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so stdout carries only the benchmark's
# report and, last, its one-line JSON verdict. The shared dune cache is
# off, so the build reads and writes nothing outside the checkout.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark/run.sh: run from the repository root (dune-project, lib/ and bin/ are missing here)" >&2
  exit 2
fi

dune build --root . --cache=disabled benchmark/main.exe bin/fbbd.exe 1>&2
exec ./_build/default/benchmark/main.exe run "$@"
