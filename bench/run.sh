#!/bin/bash
# The entry point BENCHMARK.json names; run it from the repository root.
# The benchmark is a module of its own (bench/go.mod) that builds against
# the repository around it. The Go build cache, temporary files and the
# binary are kept under bench/out/ (git-ignored), so a run reads and writes
# nothing outside its checkout.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$here/out/gocache" "$here/out/tmp"
export GOCACHE="$here/out/gocache" GOTMPDIR="$here/out/tmp"
go build -C "$here" -o out/bench .
exec "$here/out/bench" "$@"
