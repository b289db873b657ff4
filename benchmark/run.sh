#!/usr/bin/env bash
# The benchmark driver's entry point: build ./benchmark inside the checkout and
# run it with the driver's arguments. Everything the build writes (Go's build
# cache, the binary) goes under .bench_build in the checkout, so the run needs
# no writable home directory and touches nothing outside the checkout.
#
#   bash benchmark/run.sh --workload hot-update --seed 1 --seconds 9 --trace 0
#
# It must be started from the root of the repository. Anywhere else (a
# directory without go.mod and the engine's sources) it exits 2 and prints no
# result.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: run from the root of the ariesim repository (go.mod, internal/ and benchmark/ must be here)" >&2
	exit 2
fi

if ! command -v go >/dev/null 2>&1; then
	# A driver may start us with a minimal PATH; this is where the image keeps go.
	PATH="$PATH:/usr/local/go/bin"
	command -v go >/dev/null 2>&1 || { echo "benchmark/run.sh: no go toolchain on PATH" >&2; exit 2; }
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" # the build's work directory, instead of /tmp
export CGO_ENABLED=0         # pure Go: no C compiler, no external linker
export GOTOOLCHAIN=local     # never download a toolchain
export GOFLAGS=              # no inherited build flags
export GOENV=off             # no per-user go env file

go build -buildvcs=false -o "$build/ariesim-benchmark" ./benchmark
exec "$build/ariesim-benchmark" "$@"
