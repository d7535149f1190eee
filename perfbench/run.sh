#!/usr/bin/env bash
# Builds simserve and perfbench from the checked-out tree, then runs one
# benchmark workload. Run it from the repository root; the arguments pass
# through (--workload, --seed, --seconds, --trace). Build output, the Go
# build cache and run records stay inside the checkout.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/simserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/simserve and perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/simserve" ./cmd/simserve
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -simserve "$build/simserve" -out "$root/.bench_out" -root "$root" "$@"
