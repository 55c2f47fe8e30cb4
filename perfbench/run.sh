#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from the checkout's sources
# and runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-diurnal --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (compiler cache, binary, span files) stays
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Only the checkout's own git metadata names the commit, so git never
# searches the directories above it.
commit=none
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi
exec "$out/perfbench" -spans "$out/spans" -commit "$commit" "$@"
