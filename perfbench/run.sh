#!/usr/bin/env bash
# Builds the benchmark driver and the shipped sbstd / sbst-worker
# binaries from this checkout's source, then runs the driver:
#
#   bash perfbench/run.sh --workload table1_campaign --seed 1 --seconds 10 --trace 0
#
# Every build product and run file stays under .bench_build/ at the
# checkout root (the Go build cache, the toolchain's temporary and
# config directories, and the daemons' temporary files too), so the
# benchmark reads and writes nothing outside its checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
go -C perfbench build -o "$out/bin/" . repro/cmd/sbstd repro/cmd/sbst-worker
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
