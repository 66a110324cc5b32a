#!/usr/bin/env bash
# Builds privcountd and the perfbench benchmark from the checkout this is
# run from (its root must be the working directory), then runs perfbench
# with the given arguments. Builds, caches, stores and traces all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0
go build -o "$out/bin/privcountd" ./cmd/privcountd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -privcountd "$out/bin/privcountd" -workdir "$out/run" "$@"
