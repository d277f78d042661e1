#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache included, so nothing
# is read or written outside it) and runs it from the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -C bench -o "$build/misobench" .
exec "$build/misobench" "$@"
