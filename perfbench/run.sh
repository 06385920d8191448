#!/usr/bin/env bash
# Builds predmatchd and the perfbench program from the checkout's source,
# then runs perfbench with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload probe --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache and binaries under .bench_build, results under
# perfbench/results.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/predmatchd" ]]; then
	echo "perfbench: run from the root of a predmatch checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off CGO_ENABLED=0

# The source identity: a hash over every Go source and module file the
# binaries are built from.
source=$(find . -path ./.bench_build -prune -o -path ./perfbench/results -prune -o \
	\( -name '*.go' -o -name 'go.mod' -o -name 'go.sum' \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

go build -o "$out/predmatchd" ./cmd/predmatchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/predmatchd" -work "$out/work" \
	-results "$root/perfbench/results" -source "sha256:$source" "$@"
