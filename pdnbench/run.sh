#!/usr/bin/env bash
# Builds pdnbench from this checkout and runs it with the given arguments,
# e.g.  bash pdnbench/run.sh --workload plane-dense --seed 1 --seconds 20 --trace 0
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The module needs nothing from the network: pdnsim is replaced by the
# repository root and there are no other requirements.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off GOFLAGS=
(cd "$here" && go build -o "$out/pdnbench" .)
exec "$out/pdnbench" "$@"
