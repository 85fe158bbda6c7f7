#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command): build cmd/pqbench
# from source inside this checkout, then run it with the caller's arguments.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under the checkout:
# .bench_build/ (Go build cache and temporary files, the binary, scratch
# history and mirror directories) and bench/out/ (trace files). In a
# directory that holds only BENCHMARK.json and the benchmark's own paths the
# build fails — cmd/pqbench needs the printqueue module two levels up — and
# so does this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/go-tmp"
export XDG_CONFIG_HOME="$build/config" # Go's telemetry counters
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/cmd/pqbench" && go build -o "$build/pqbench" .)

cd "$root"
exec "$build/pqbench" "$@"
