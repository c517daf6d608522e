#!/usr/bin/env bash
# Build the benchmark and the uload binary from source, then run one
# benchmark invocation with the given arguments (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . perfbench/perfbench.exe bin/uload.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --uload ./_build/default/bin/uload.exe "$@"
