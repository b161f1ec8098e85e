#!/usr/bin/env bash
# Build mrvbench from source and run it with the given arguments, e.g.
#   bash mrvbench/run.sh --workload compile --seed 1 --seconds 15 --trace 0
# Release profile; dune's shared cache is off, so the build writes only
# to _build in this checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "mrvbench: not a checkout of the repository (no dune-project or lib/ in $PWD)" >&2
  exit 2
fi
exec dune exec --root . --profile release --cache=disabled --display=quiet \
  ./mrvbench/mrvbench.exe -- "$@"
