#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; the last
# line on stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/serve ] || [ ! -d bin ]; then
  echo "perfbench: $(pwd) is not a checkout of the repository" >&2
  exit 2
fi
dune build --root . ./bin/search_cli.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
