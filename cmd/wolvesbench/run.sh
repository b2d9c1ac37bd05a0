#!/usr/bin/env bash
# Builds wolvesbench from the sources of the checkout it is run in, then
# runs it with the given flags. Run it from the root of a checkout:
#
#   bash cmd/wolvesbench/run.sh --workload serve-read --seed 1 --seconds 30 --trace 0
#
# Everything it writes (the Go build cache, the binary, the server's data
# directory, trace.json) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d internal/server || ! -f cmd/wolvesbench/go.mod ]]; then
	echo "wolvesbench: run from the root of a wolves checkout (go.mod, internal/ or cmd/wolvesbench/ missing)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd cmd/wolvesbench && go build -o "$out/wolvesbench" .)
exec "$out/wolvesbench" "$@"
