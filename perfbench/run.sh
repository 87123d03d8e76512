#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload app --seed 1 --seconds 30 --trace 0
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -workdir "$out" "$@"
