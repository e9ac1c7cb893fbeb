#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload doh_hit --seed 1 --seconds 15 --trace 0
#
# Build outputs (binary and Go build cache) stay under .bench_build/ in
# the checkout.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -trimpath -ldflags "-X main.commit=$commit" -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
