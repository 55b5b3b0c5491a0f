#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-update --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache,
# temporary files) goes under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
