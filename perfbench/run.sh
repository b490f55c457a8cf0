#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  Build output goes to .bench_build/,
# span traces to .bench_out/.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench/run.sh: no dune-project and lib/ here; run from the root of a cmtk checkout" >&2
  exit 2
fi
dune build --root . --build-dir .bench_build --profile release --cache=disabled ./perfbench/cmbench.exe >&2
exec .bench_build/default/perfbench/cmbench.exe "$@"
