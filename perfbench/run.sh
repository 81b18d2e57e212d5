#!/usr/bin/env bash
# Build the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload certify_micro|libgen_suite|serve_zipf \
#        --seed N --seconds S --trace 0|1
#
# Run from the repository root.  The build lands in .bench_build/ and
# the run's scratch files in .perfbench/; the last stdout line is the
# JSON result.  Exits non-zero without a result when the build fails.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/perfbench.exe 1>&2
exec ./.bench_build/default/perfbench/perfbench.exe "$@"
