#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given, e.g.
#   bash perfbench/run.sh --workload tlr-mle --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build state (Go build cache, module cache,
# the binary, CPU profiles) stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -p 2 -o "$out/perfbench" .)
rev=unknown
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
src=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
exec "$out/perfbench" --rev "$rev" --src "$src" "$@"
