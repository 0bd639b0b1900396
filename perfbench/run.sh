#!/usr/bin/env bash
# Builds the benchmark and the aid binary from the checkout's source, then
# runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload studies --seed 1 --seconds 36 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# binaries) stays under .bench_build in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# With telemetry on (the default for a fresh config directory), the go
# command forks a detached upload process that outlives this script.
# "go telemetry off" itself forks nothing.
go telemetry off

(cd "$root" && go build -o "$out/bin/aid" ./cmd/aid)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

# The program runs at GOMAXPROCS=1; the daemon gets it from the benchmark.
GOMAXPROCS=1 exec "$out/bin/perfbench" --root "$root" --aid "$out/bin/aid" --spans "$out/spans" "$@"
