#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary files and the run scratch
# (stores, span files) all stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -d "$root/efd" ]; then
	echo "perfbench: not the root of a repository checkout: $root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# perfbench is a module of its own (perfbench/go.mod, with the
# repository's module replaced by the checkout), so the repository's
# own `go build ./...` and `go test ./...` leave it out.
go -C "$root/perfbench" build -o "$out/perfbench" .

# The revision: git when the checkout is a repository, else a digest of
# the Go sources, so results still name the code they measured.
rev=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || true)
if [ -z "$rev" ]; then
	rev="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi
PERFBENCH_REV="$rev" exec "$out/perfbench" "$@"
